#!/usr/bin/env python3
"""Check the heat-bath sampler against exact enumeration on small models.

For models with a few thousand valid configurations we can enumerate the law
exactly, verify detailed balance of the single-site kernel, confirm the chain
reaches every state, and measure the total-variation gap of the empirical law
of many independent chains.
"""
import math

from hcolor import (
    Model,
    enumerate_exact,
    generate,
    is_glauber_irreducible,
    max_detailed_balance_violation,
    preset,
    tv_distance_empirical,
)

models = [
    ("hardcore on a 5-cycle", Model(generate("cycle", {"n": 5}), preset("hardcore"), [0.0])),
    ("two-species repulsion on an edge", Model(generate("complete", {"n": 2}), preset("widom_rowlinson"), [0.2, -0.1])),
    ("3-coloring of a 3-path", Model(generate("path", {"n": 3}), preset("proper_coloring", q=3), [0.3, -0.3])),
    ("3-coloring of a triangle", Model(generate("complete", {"n": 3}), preset("proper_coloring", q=3), [0.0, 0.0])),
]

for name, model in models:
    summary = enumerate_exact(model)
    states = len(summary.state_probabilities)
    balance = max_detailed_balance_violation(model, summary)
    irreducible = is_glauber_irreducible(model, summary)
    line = f"{name}: {states} states, balance violation {balance:.1e}, irreducible={irreducible}"
    if irreducible:
        tv = tv_distance_empirical(model, sweeps=200, replicates=20000, seed=1, summary=summary)
        line += f", TV after burn-in {tv:.4f}"
    else:
        # e.g. every proper 3-coloring of a triangle is frozen: single-site
        # moves can never change it, so no distributional claim is made
        line += ", TV skipped (single-site moves cannot reach every state)"
    print(line)

print()
print("exact log-partition of hardcore on a 2-vertex clique at activity 1:",
      round(enumerate_exact(Model(generate("complete", {"n": 2}), preset("hardcore"), [0.0])).log_partition, 6),
      "= log 3 =", round(math.log(3), 6))
