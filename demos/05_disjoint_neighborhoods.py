#!/usr/bin/env python3
"""Large vertex sets with pairwise disjoint neighborhoods.

Any graph with bounded average 2-neighborhood contains a linear-size vertex
subset whose neighborhoods do not overlap; such sets drive the curvature
analysis for proper-coloring estimation. The construction scans a random
vertex ordering, keeping a vertex when nothing within distance 2 precedes it,
with a deterministic greedy backstop.
"""
import numpy as np

from hcolor import (
    degree_stats,
    generate,
    neighborhood_disjoint_size_bound,
    neighborhood_disjoint_subset,
)

rng = np.random.default_rng(0)
for kind, params in [
    ("cycle", {"n": 60}),
    ("grid", {"rows": 8, "cols": 8}),
    ("erdos_renyi", {"n": 120, "c": 2.0}),
    ("random_regular", {"n": 100, "d": 3}),
]:
    g = generate(kind, params, seed=5)
    stats = degree_stats(g)
    w = sorted(int(v) for v in rng.choice(g.n, size=g.n // 2 + 1, replace=False))
    subset = neighborhood_disjoint_subset(g, w, seed=9)
    bound = neighborhood_disjoint_size_bound(g)

    # verify the defining property directly
    seen = set()
    for v in subset:
        nb = set(g.neighbors(v).tolist())
        assert not (nb & seen)
        seen |= nb

    print(
        f"{kind:>14} n={g.n:3d} avg 2-neighborhood={float(stats.avg_two_neighborhood):5.2f} "
        f"|subset|={len(subset):3d} >= guaranteed {float(bound):5.2f}"
    )
