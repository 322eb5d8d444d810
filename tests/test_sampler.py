"""Heat-bath dynamics, feasibility search, exact enumeration, and diagnostics."""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hcolor.errors import (
    EnumerationCapError,
    FeasibilityUnknownError,
    InfeasibleModelError,
    ParameterError,
)
from hcolor.graphs import generate, induced_subgraph
from hcolor import sampler as sampler_module
from hcolor.model import ConstraintGraph, Model, _allowed_sets, _conditional_law, is_valid, preset
from hcolor.sampler import (
    default_burn_in,
    enumerate_exact,
    find_valid_configuration,
    is_glauber_irreducible,
    max_detailed_balance_violation,
    sample,
    sample_many,
    tv_distance_empirical,
)

HARD = preset("hardcore")
K2 = generate("complete", {"n": 2})
PATH3 = generate("path", {"n": 3})
TRIANGLE = generate("complete", {"n": 3})
COL3 = preset("proper_coloring", q=3)


def _conditional(u, cfg, model):
    """Heat-bath law of vertex u given the rest of the valid configuration cfg."""
    allowed = _allowed_sets(np.array([cfg]), model.graph, model.h)[0, u]
    return _conditional_law(allowed, model.beta_full)


def test_conditional_hardcore_k2():
    model = Model(K2, HARD, [0.8])
    dist = _conditional(0, [0, 0], model)
    assert dist[1] == pytest.approx(math.exp(0.8) / (math.exp(0.8) + 1))
    assert dist.sum() == pytest.approx(1.0)


def test_conditional_forced_vertex():
    model = Model(TRIANGLE, COL3, [0.0, 0.0])
    dist = _conditional(0, [0, 1, 2], model)
    assert dist.tolist() == [1.0, 0.0, 0.0]


def test_conditional_widom_rowlinson():
    b1, b2 = 0.4, -0.3
    model = Model(K2, preset("widom_rowlinson"), [b1, b2])
    dist = _conditional(0, [0, 1], model)
    assert dist[1] == pytest.approx(math.exp(b1) / (1 + math.exp(b1)))
    assert dist[2] == 0.0


def test_conditional_survives_huge_beta():
    model = Model(K2, HARD, [720.0])
    dist = _conditional(0, [0, 0], model)
    assert dist[1] == pytest.approx(1.0)


def test_find_valid_hardcore_is_all_empty():
    for g in [K2, PATH3, generate("cycle", {"n": 6})]:
        assert find_valid_configuration(g, HARD, seed=5).tolist() == [0] * g.n


def test_find_valid_two_coloring_triangle_infeasible():
    with pytest.raises(InfeasibleModelError):
        find_valid_configuration(TRIANGLE, preset("proper_coloring", q=2), seed=0)


def test_find_valid_three_coloring_cycle():
    g = generate("cycle", {"n": 6})
    cfg = find_valid_configuration(g, COL3, seed=1)
    assert is_valid(cfg, g, COL3)


def test_find_valid_budget_exhaustion():
    g = generate("complete", {"n": 12})
    with pytest.raises(FeasibilityUnknownError):
        # 11-coloring a 12-clique is infeasible but the tree is big
        find_valid_configuration(g, preset("proper_coloring", q=11), seed=0, budget=50)


def test_find_valid_deterministic_per_seed():
    g = generate("cycle", {"n": 10})
    a = find_valid_configuration(g, COL3, seed=9)
    b = find_valid_configuration(g, COL3, seed=9)
    assert a.tolist() == b.tolist()


def test_chain_preserves_validity_at_every_sweep_count():
    g = generate("erdos_renyi", {"n": 12, "c": 2.0}, seed=2)
    model = Model(g, preset("widom_rowlinson"), [0.3, -0.2])
    for sweeps in range(11):
        for cfg in sample_many(model, 4, burn_in_sweeps=sweeps, seed=4):
            assert is_valid(cfg, g, model.h)


class _ScriptedRng:
    """Stand-in generator yielding prescribed uniforms, one array per class update."""

    def __init__(self, *unis):
        self._unis = [np.asarray(u, dtype=np.float64) for u in unis]

    def random(self, size):
        unis = self._unis.pop(0)
        assert size == unis.shape
        return unis


def test_single_update_is_conditional_resampling():
    # K2 has the classes {0} and {1}, so one sweep is two class updates and
    # each consumes one scripted (rows, class size) draw. From (0, 0), a
    # uniform of 0.9 at vertex 0 lands in the upper half of the (1/2, 1/2)
    # conditional: color 1; 0.1 lands in the lower half: color 0. Vertex 1 is
    # then blocked in row 0 and free in row 1.
    from hcolor.sampler import _Engine

    assert [c.tolist() for c in K2.color_classes] == [[0], [1]]
    model = Model(K2, HARD, [0.0])
    engine = _Engine(model, None, 2)
    colors = np.array([[0, 0], [0, 0], [2, 2]], dtype=engine.dtype)  # sentinel row holds q
    rng = _ScriptedRng([[0.9], [0.1]], [[0.2], [0.8]])
    engine.run(colors, 1, rng)
    assert colors[:2].T.tolist() == [[1, 0], [0, 1]]
    assert rng._unis == []


def test_on_the_fly_weights_match_exact_law():
    # q = 13 exceeds the lookup-table limit, so every class update forms its
    # cumulative weights from the allowed-color mask bits
    from hcolor.sampler import _Engine

    h = ConstraintGraph(13, [(s, t) for s in range(13) for t in range(s, 13) if s + t <= 12])
    model = Model(generate("path", {"n": 4}), h, np.linspace(-0.6, 0.6, 12))
    assert _Engine(model, None, 1).table is None
    replicates = 20000
    draws = sample_many(model, replicates, burn_in_sweeps=100, seed=5)
    for u, v in model.graph.edges():
        assert h.allow_matrix[draws[:, u], draws[:, v]].all()
    counts = np.stack([(draws == r).sum(axis=1) for r in range(h.q)], axis=1)
    se = counts.std(axis=0, ddof=1) / math.sqrt(replicates)
    exact = enumerate_exact(model).expected_counts
    assert np.all(np.abs(counts.mean(axis=0) - exact) <= 5 * se)


def _classes_of(g):
    return [c.tolist() for c in g.color_classes]


def test_color_classes_partition_vertices_without_inner_edges():
    graphs = [
        generate("erdos_renyi", {"n": 200, "c": 3.0}, seed=4),
        generate("random_regular", {"n": 100, "d": 5}, seed=2),
        generate("grid", {"rows": 7, "cols": 9}),
        generate("complete", {"n": 6}),
        generate("star", {"leaves": 0}),
    ]
    for g in graphs:
        label = np.full(g.n, -1)
        for c, cls in enumerate(g.color_classes):
            assert np.all(np.diff(cls) > 0)
            assert np.all(label[cls] == -1)
            label[cls] = c
        assert np.all(label >= 0)
        assert all(label[u] != label[v] for u, v in g.edges())
        assert len(g.color_classes) <= g.max_degree() + 1


def test_color_classes_are_deterministic():
    a = generate("erdos_renyi", {"n": 300, "c": 2.5}, seed=8)
    b = generate("erdos_renyi", {"n": 300, "c": 2.5}, seed=8)
    assert _classes_of(a) == _classes_of(b)
    assert a.color_classes is a.color_classes


class _WriteLog(np.ndarray):
    """Color array that records the vertex indices of every write."""

    def __setitem__(self, index, value):
        self.log.append(np.asarray(index).tolist())
        super().__setitem__(index, value)


def test_one_sweep_updates_each_vertex_exactly_once():
    from hcolor.sampler import _Engine

    g = generate("erdos_renyi", {"n": 40, "c": 3.0}, seed=1)
    model = Model(g, preset("widom_rowlinson"), [0.3, -0.2])
    engine = _Engine(model, None, 3)
    start = np.append(find_valid_configuration(g, model.h, seed=0), model.q)
    colors = np.repeat(start.astype(engine.dtype)[:, None], 3, axis=1).view(_WriteLog)
    colors.log = []
    engine.run(colors, 1, np.random.default_rng(0))
    assert colors.log == _classes_of(g)
    assert sorted(v for cls in colors.log for v in cls) == list(range(g.n))


def test_odd_cycle_three_classes_match_exact_law():
    g = generate("cycle", {"n": 7})
    assert _classes_of(g) == [[0, 2, 4], [1, 3, 5], [6]]
    replicates = 20000
    for h, beta in [(HARD, [0.4]), (preset("widom_rowlinson"), [0.2, -0.3])]:
        model = Model(g, h, beta)
        draws = sample_many(model, replicates, burn_in_sweeps=60, seed=9)
        counts = np.stack([(draws == r).sum(axis=1) for r in range(h.q)], axis=1)
        se = counts.std(axis=0, ddof=1) / math.sqrt(replicates)
        exact = enumerate_exact(model).expected_counts
        assert np.all(np.abs(counts.mean(axis=0) - exact) <= 5 * se)


def test_engine_randomness_memory_is_bounded():
    # uniforms are drawn per class update, never for many sweeps at once
    model = Model(TRIANGLE, HARD, [0.0])
    tracemalloc.start()
    try:
        sample_many(model, 20000, burn_in_sweeps=400, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_engine_memory_on_the_consistency_cell():
    # 3-coloring of the 1000-cycle, 256 rows in two activity groups
    model = Model(generate("cycle", {"n": 1000}), COL3, [0.0, 0.0])
    rows = np.repeat([[0.3, -0.3], [-0.2, 0.1]], 128, axis=0)
    start = find_valid_configuration(model.graph, model.h)
    tracemalloc.start()
    try:
        sample_many(model, 256, burn_in_sweeps=20, seed=1, start=start, beta_rows=rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_many_rejects_non_finite_beta_rows(bad):
    model = Model(generate("cycle", {"n": 6}), COL3, [0.0, 0.0])
    with pytest.raises(ParameterError, match="finite"):
        sample_many(model, 4, 10, beta_rows=[[bad, 0.0]] * 4)
    with pytest.raises(ParameterError, match="finite"):
        sample_many(model, 2, 10, beta_rows=[[0.0, 0.0], [0.0, bad]])


def test_exact_layer_rejects_overflowing_log_weights():
    model = Model(generate("cycle", {"n": 6}), HARD, [1e308])
    with pytest.raises(ParameterError, match="overflow"):
        enumerate_exact(model)
    assert enumerate_exact(Model(model.graph, HARD, [1e300])).expected_counts[1] == 3.0


def test_zero_sweeps_leaves_chain_unchanged():
    model = Model(generate("cycle", {"n": 10}), COL3, [0.0, 0.0])
    start = find_valid_configuration(model.graph, model.h, seed=3)
    assert sample(model, burn_in_sweeps=0, seed=3).tolist() == start.tolist()


def test_sampling_is_bit_deterministic():
    g = generate("cycle", {"n": 9})
    model = Model(g, HARD, [0.5])
    a = sample(model, burn_in_sweeps=30, seed=123)
    b = sample(model, burn_in_sweeps=30, seed=123)
    assert a.tolist() == b.tolist()
    ma = sample_many(model, 5, burn_in_sweeps=10, seed=7)
    mb = sample_many(model, 5, burn_in_sweeps=10, seed=7)
    assert np.array_equal(ma, mb)


def test_default_burn_in_rule():
    assert default_burn_in(2) == 200 * math.ceil(math.log(3))
    assert default_burn_in(4096) == 1800


def test_enumerate_hardcore_k2():
    model = Model(K2, HARD, [0.0])
    summary = enumerate_exact(model)
    assert summary.log_partition == pytest.approx(math.log(3))
    assert summary.expected_counts[1] == pytest.approx(2 / 3)
    assert len(summary.state_probabilities) == 3
    assert sum(summary.state_probabilities.values()) == pytest.approx(1.0, abs=1e-12)


def test_enumerate_hardcore_path3():
    model = Model(PATH3, HARD, [0.0])
    summary = enumerate_exact(model)
    # independent sets of a 3-path: {}, {0}, {1}, {2}, {0,2}
    assert len(summary.state_probabilities) == 5
    assert summary.log_partition == pytest.approx(math.log(5))
    lam2 = Model(PATH3, HARD, [math.log(2)])
    s2 = enumerate_exact(lam2)
    assert s2.state_probabilities[(1, 0, 1)] == pytest.approx(4 / 11)


def test_enumerate_rainbow_triangle():
    model = Model(TRIANGLE, COL3, [0.0, 0.0])
    summary = enumerate_exact(model)
    assert summary.log_partition == pytest.approx(math.log(6))
    assert len(summary.state_probabilities) == 6


def test_enumerate_expected_unconstrained():
    model = Model(K2, HARD, [0.0])
    summary = enumerate_exact(model)
    # occupiable counts per state: (0,0) -> 2, (1,0) -> 1, (0,1) -> 1
    assert summary.expected_unconstrained[1] == pytest.approx(4 / 3)


def test_enumerate_cap():
    g = generate("grid", {"rows": 4, "cols": 5})
    model = Model(g, preset("proper_coloring", q=4), [0.0] * 3)
    with pytest.raises(EnumerationCapError):
        enumerate_exact(model, state_cap=1000)


def test_enumerate_prunes_structured_graphs():
    # The forced structure keeps the search tiny even though q**n is astronomical.
    g = generate("clique_bipartite", {"q": 3, "N": 40})
    model = Model(g, COL3, [-0.5, -0.25])
    summary = enumerate_exact(model, state_cap=100_000)
    assert len(summary.state_probabilities) == 6


def test_partition_derivative_matches_expected_counts():
    # centered difference of the log partition in each activity equals E[count]
    rng = np.random.default_rng(17)
    hs = [HARD, preset("widom_rowlinson"), COL3, preset("multistate_hardcore", q=2)]
    step = 1e-4
    for trial in range(12):
        h = hs[trial % len(hs)]
        g = generate("erdos_renyi", {"n": int(rng.integers(3, 9)), "c": 1.5}, seed=trial)
        beta = rng.uniform(-1, 1, size=h.q - 1)
        try:
            base = enumerate_exact(Model(g, h, beta))
        except InfeasibleModelError:
            continue
        for r in range(h.q - 1):
            e = np.zeros(h.q - 1)
            e[r] = step
            up = enumerate_exact(Model(g, h, beta + e)).log_partition
            dn = enumerate_exact(Model(g, h, beta - e)).log_partition
            fd = (up - dn) / (2 * step)
            assert fd == pytest.approx(base.expected_counts[r + 1], rel=1e-6, abs=1e-9)


def test_detailed_balance_small_models():
    models = [
        Model(K2, HARD, [0.0]),
        Model(PATH3, HARD, [math.log(2)]),
        Model(TRIANGLE, COL3, [0.3, -0.3]),
        Model(K2, preset("widom_rowlinson"), [0.2, -0.1]),
    ]
    for model in models:
        assert max_detailed_balance_violation(model) <= 1e-10


def test_irreducibility_check():
    assert is_glauber_irreducible(Model(K2, HARD, [0.0]))
    # all six rainbow colorings of a triangle are frozen under single-site moves
    assert not is_glauber_irreducible(Model(TRIANGLE, COL3, [0.0, 0.0]))
    # even 3-colored cycles have frozen alternating states
    c6 = generate("cycle", {"n": 6})
    assert not is_glauber_irreducible(Model(c6, COL3, [0.0, 0.0]))


def test_tv_small_after_burn_in():
    model = Model(K2, HARD, [0.0])
    tv = tv_distance_empirical(model, sweeps=50, replicates=20000, seed=3)
    assert tv < 0.02


def test_tv_large_without_sweeps():
    model = Model(K2, HARD, [0.0])
    tv = tv_distance_empirical(model, sweeps=0, replicates=5000, seed=3)
    assert tv > 0.2  # point mass at the fixed start vs a spread-out law


def test_sample_many_beta_rows_match_single_runs_in_law():
    # distributional check: batched rows at two activities reproduce the exact
    # occupancy means for their own activity
    g = PATH3
    model = Model(g, HARD, [0.0])
    rows = np.repeat(np.array([[math.log(2)], [-1.0]]), 4000, axis=0)
    draws = sample_many(model, 8000, burn_in_sweeps=60, seed=11, beta_rows=rows)
    first = draws[:4000].mean(axis=0).sum()
    second = draws[4000:].mean(axis=0).sum()
    e1 = enumerate_exact(Model(g, HARD, [math.log(2)])).expected_counts[1]
    e2 = enumerate_exact(Model(g, HARD, [-1.0])).expected_counts[1]
    assert first == pytest.approx(e1, abs=0.05)
    assert second == pytest.approx(e2, abs=0.05)


# ---------------------------------------------------------------------------
# Pinned engine output: the draws of both engine paths, byte for byte
# ---------------------------------------------------------------------------


def _pinned_many(g, h, beta, replicates, sweeps, seed, beta_rows=None):
    model = Model(g, h, beta)
    return sample_many(model, replicates, burn_in_sweeps=sweeps, seed=seed, beta_rows=beta_rows)


def _pinned_split_chain():
    # first pinned as 7, 0 and 13 sweeps of one chain; the draws match 20 at once
    model = Model(generate("grid", {"rows": 6, "cols": 7}), preset("widom_rowlinson"), [0.4, -0.1])
    return sample(model, burn_in_sweeps=20, seed=21)[None, :]


_Q13 = ConstraintGraph(13, [(s, t) for s in range(13) for t in range(s, 13) if s + t <= 12])
_RANDOM_ROWS = np.random.default_rng(2).uniform(-1, 1, (17, 11))

# Table path at R = 1, 64, 256 and 2*10**4, the q = 12 table at its 16-group
# limit, and the on-the-fly path (q = 13, q = 12 with 17 groups, q = 70).
PINNED_ENGINE_CASES = {
    "table-R1": lambda: sample(
        Model(generate("random_regular", {"n": 300, "d": 3}, seed=4), HARD, [0.2]),
        burn_in_sweeps=30, seed=8,
    )[None, :],
    "table-R64": lambda: _pinned_many(
        generate("random_regular", {"n": 200, "d": 3}, seed=1), preset("widom_rowlinson"),
        [0.3, -0.2], 64, 20, 3,
    ),
    "table-R256-two-groups": lambda: _pinned_many(
        generate("cycle", {"n": 200}), COL3, [0.0, 0.0], 256, 20, 5,
        beta_rows=np.repeat([[0.3, -0.3], [-0.2, 0.1]], 128, axis=0),
    ),
    "table-R20000": lambda: _pinned_many(PATH3, HARD, [0.4], 20000, 100, 6),
    "table-isolated-vertices": lambda: _pinned_many(
        generate("erdos_renyi", {"n": 60, "c": 1.0}, seed=3), COL3, [0.5, -0.5], 32, 15, 4,
    ),
    "table-q12-16-groups": lambda: _pinned_many(
        generate("grid", {"rows": 4, "cols": 5}), preset("proper_coloring", q=12), [0.0] * 11,
        16, 10, 7, beta_rows=_RANDOM_ROWS[:16],
    ),
    "fly-q13": lambda: _pinned_many(
        generate("path", {"n": 4}), _Q13, np.linspace(-0.6, 0.6, 12), 64, 20, 5,
    ),
    "fly-q12-17-groups": lambda: _pinned_many(
        generate("grid", {"rows": 4, "cols": 5}), preset("proper_coloring", q=12), [0.0] * 11,
        17, 10, 7, beta_rows=_RANDOM_ROWS,
    ),
    "fly-q70": lambda: _pinned_many(
        generate("path", {"n": 5}), preset("proper_coloring", q=70),
        np.linspace(-1, 1, 69), 8, 10, 9,
    ),
    "chain-split-sweeps": _pinned_split_chain,
}

PINNED_ENGINE_DIGESTS = {
    "chain-split-sweeps": "0b26be9ff0bbe673ac5f5ebcfe6f371c5c8340c33b1123701b15447a48bf892f",
    "fly-q12-17-groups": "916c72dc782469c30f388ae59989139e5b695cdc93a58e9b02553ca17de47fe6",
    "fly-q13": "93f6cfd08562be89f7976f146696b48a84254ab4eb1720bc47836673da97f05d",
    "fly-q70": "0814e64f0d8fb4a69bfc3498a31ee4732c5dd8df650f956d669b035424d2f0f2",
    "table-R1": "b6f3b7afe8a3308b24781cd908ec0ed5ad649f8b6a1399fd79ff65837343becc",
    "table-R20000": "b835d3499dd3276dbc33bb4b453f4d1753f6374591e17292ba0a6cdd9ee69a5b",
    "table-R256-two-groups": "119bb371050ce8f0e9352c11d34746ad5a67e54e60edb5bc8b58e8c7e9fdac7c",
    "table-R64": "28c9c9caa62f6e03a3804f9c27136270de857848b6edbfb877325709ca219951",
    "table-isolated-vertices": "00309f04f9bb7e545101ffd4dfb37d631e5c0a59e9dad229d84038439cc5f464",
    "table-q12-16-groups": "9613bfb30e22e7d70646f70745dd9814121354aa4725d8e046931c048b57598f",
}


def test_table_boundary_is_the_group_count_times_two_to_the_q():
    from hcolor.sampler import _Engine

    model = Model(generate("path", {"n": 3}), preset("proper_coloring", q=12), [0.0] * 11)
    assert _Engine(model, _RANDOM_ROWS[:16], 16).table is not None
    assert _Engine(model, _RANDOM_ROWS, 17).table is None
    assert _Engine(Model(PATH3, _Q13, [0.0] * 12), None, 1).table is None


@pytest.mark.parametrize("burn_in", [0, 5, 40, None])
def test_sample_is_row_zero_of_sample_many(burn_in):
    # a lookup-table model and the q = 13 on-the-fly model, at several seeds
    models = [
        Model(generate("random_regular", {"n": 60, "d": 3}, seed=2), preset("widom_rowlinson"), [0.3, -0.2]),
        Model(generate("path", {"n": 4}), _Q13, np.linspace(-0.6, 0.6, 12)),
    ]
    for model in models:
        for seed in (0, 1, 7, 123):
            one = sample(model, burn_in_sweeps=burn_in, seed=seed)
            many = sample_many(model, 1, burn_in_sweeps=burn_in, seed=seed)
            assert one.dtype == many.dtype == np.int64 and one.shape == (model.n,)
            assert one.tobytes() == many[0].tobytes()


@pytest.mark.parametrize("case", sorted(PINNED_ENGINE_CASES))
def test_engine_draws_match_pinned_digests(case):
    draws = PINNED_ENGINE_CASES[case]()
    assert draws.dtype == np.int64
    digest = hashlib.sha256(repr(draws.shape).encode() + draws.tobytes()).hexdigest()
    assert digest == PINNED_ENGINE_DIGESTS[case]


# ---------------------------------------------------------------------------
# The array-backed exact layer against itertools brute force
# ---------------------------------------------------------------------------

# (graph, constraint graph) pairs with q**n <= 6561, covering every preset
BRUTE_FORCE_CASES = [
    (generate("path", {"n": 8}), HARD),
    (generate("grid", {"rows": 2, "cols": 4}), HARD),
    (generate("cycle", {"n": 8}), preset("widom_rowlinson")),
    (generate("star", {"leaves": 5}), preset("widom_rowlinson")),
    (generate("erdos_renyi", {"n": 7, "c": 2.0}, seed=3), preset("multistate_hardcore", q=2)),
    (generate("path", {"n": 6}), preset("multistate_hardcore", q=3)),
    (generate("cycle", {"n": 8}), COL3),
    (generate("complete", {"n": 4}), preset("proper_coloring", q=4)),
    (generate("cycle", {"n": 6}), preset("proper_coloring", q=4)),
    (generate("cycle", {"n": 5}), preset("proper_coloring", q=5)),
    (generate("erdos_renyi", {"n": 6, "c": 2.5}, seed=1), preset("counterexample_h")),
    (generate("path", {"n": 6}), preset("counterexample_h")),
]


def _brute_force(model):
    """Valid states in lexicographic order, their probabilities, and the
    heat-bath kernel as {(state, vertex): {color: probability}}."""
    g, h = model.graph, model.h
    states = [s for s in itertools.product(range(h.q), repeat=g.n) if is_valid(s, g, h)]
    weights = np.array([math.exp(sum(model.beta_full[c] for c in s)) for s in states])
    kernel = {}
    for s in states:
        for u in range(g.n):
            ok = [c for c in range(h.q) if is_valid(s[:u] + (c,) + s[u + 1 :], g, h)]
            total = sum(math.exp(model.beta_full[c]) for c in ok)
            kernel[s, u] = {c: math.exp(model.beta_full[c]) / total for c in ok}
    return states, weights / weights.sum(), kernel


def _brute_violation(states, probs, kernel, n):
    p = dict(zip(states, probs))
    worst = 0.0
    for (s, u), law in kernel.items():
        for c, k in law.items():
            t = s[:u] + (c,) + s[u + 1 :]
            worst = max(worst, abs(p[s] * k - p[t] * kernel[t, u][s[u]]) / n)
    return worst


def _brute_irreducible(states, kernel):
    seen, stack = {states[0]}, [states[0]]
    while stack:
        s = stack.pop()
        for u in range(len(s)):
            for c in kernel[s, u]:
                t = s[:u] + (c,) + s[u + 1 :]
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return len(seen) == len(states)


@pytest.mark.parametrize("case", range(len(BRUTE_FORCE_CASES)))
def test_exact_layer_matches_brute_force(case):
    g, h = BRUTE_FORCE_CASES[case]
    model = Model(g, h, np.random.default_rng(case).uniform(-1, 1, h.q - 1))
    states, probs, kernel = _brute_force(model)
    summary = enumerate_exact(model)
    assert [tuple(s) for s in summary.states.tolist()] == states
    assert list(summary.state_probabilities) == states
    np.testing.assert_allclose(summary.probabilities, probs, rtol=1e-12)
    assert summary.log_partition == pytest.approx(
        math.log(sum(math.exp(sum(model.beta_full[c] for c in s)) for s in states)), rel=1e-12
    )
    counts = np.array([np.bincount(s, minlength=h.q) for s in states])
    np.testing.assert_allclose(summary.expected_counts, probs @ counts, rtol=1e-12, atol=1e-12)
    uncon = np.array(
        [[sum(c in kernel[s, u] for u in range(g.n)) for c in range(h.q)] for s in states]
    )
    np.testing.assert_allclose(summary.expected_unconstrained, probs @ uncon, rtol=1e-12, atol=1e-12)

    irreducible = is_glauber_irreducible(model, summary)
    assert type(irreducible) is bool
    assert irreducible == _brute_irreducible(states, kernel)
    assert max_detailed_balance_violation(model, summary) <= 1e-15
    # a law that is not the stationary one: both checks see the same violation
    skewed = probs * np.exp(np.random.default_rng(case).uniform(-0.5, 0.5, len(states)))
    wrong = dataclasses.replace(summary, probabilities=skewed / skewed.sum())
    expected = _brute_violation(states, wrong.probabilities, kernel, g.n)
    assert max_detailed_balance_violation(model, wrong) == pytest.approx(expected, rel=1e-12)


def _expansion_count(g, h) -> int:
    """q times the number of valid partial colorings of vertices 0..d-1, d < n."""
    total = 0
    for depth in range(g.n):
        sub = induced_subgraph(g, range(depth)) if depth else None
        partial = sum(
            1 for s in itertools.product(range(h.q), repeat=depth) if sub is None or is_valid(s, sub, h)
        )
        total += h.q * partial
    return total


def test_enumerate_cap_boundary_is_the_expansion_count():
    for g, h in [
        (generate("grid", {"rows": 3, "cols": 3}), COL3),
        (generate("cycle", {"n": 6}), preset("counterexample_h")),
        (generate("path", {"n": 7}), HARD),
    ]:
        model = Model(g, h, [0.0] * (h.q - 1))
        count = _expansion_count(g, h)
        assert len(enumerate_exact(model, state_cap=count).state_probabilities) > 0
        with pytest.raises(EnumerationCapError):
            enumerate_exact(model, state_cap=count - 1)


def test_exact_checks_where_q_to_the_n_overflows_int64():
    # 2**70 colorings, two valid ones, and no single-site move between them
    model = Model(generate("path", {"n": 70}), preset("proper_coloring", q=2), [0.3])
    summary = enumerate_exact(model)
    assert [s[:3] for s in summary.state_probabilities] == [(0, 1, 0), (1, 0, 1)]
    assert max_detailed_balance_violation(model, summary) == 0.0
    assert is_glauber_irreducible(model, summary) is False


# The exact oracles' answers, pinned by repr: the models of the benchmark's
# exact workload at fixed activities, hardcore at activities e**(+-700), q = 13,
# 2**70 colorings and the frozen triangle. Each row: label, number of states,
# irreducible, detailed-balance violation of the exact law and of a skewed law.
PINNED_EXACT_SHAPES = [
    ("hardcore", None, "cycle", 16), ("hardcore", None, "grid3", 5),
    ("widom_rowlinson", None, "path", 9), ("widom_rowlinson", None, "grid3", 3),
    ("multistate_hardcore", 2, "cycle", 10), ("multistate_hardcore", 2, "grid3", 3),
    ("proper_coloring", 3, "cycle", 12), ("proper_coloring", 3, "grid3", 4),
    ("counterexample_h", None, "path", 10), ("counterexample_h", None, "cycle", 10),
    ("hardcore", None, "path", 3), ("hardcore", None, "cycle", 4),
    ("widom_rowlinson", None, "path", 2), ("multistate_hardcore", 2, "path", 2),
]
PINNED_EXACT_VALUES = [
    ("hardcore cycle 16", 2207, True, 3.3881317890172014e-21, 1.5289510836315664e-05),
    ("hardcore grid3 5", 827, True, 1.4456028966473392e-20, 5.1436152909955314e-05),
    ("widom_rowlinson path 9", 3363, True, 2.4093381610788986e-20, 3.063705450743567e-05),
    ("widom_rowlinson grid3 3", 2021, True, 4.818676322157797e-20, 7.108771590742802e-05),
    ("multistate_hardcore cycle 10", 3281, True, 3.252606517456513e-20, 3.442182176325403e-05),
    ("multistate_hardcore grid3 3", 1164, True, 4.818676322157797e-20, 8.354430836607577e-05),
    ("proper_coloring cycle 12", 4098, False, 9.03501810404587e-21, 1.5758521692827806e-05),
    ("proper_coloring grid3 4", 1122, True, 2.710505431213761e-20, 5.456005024775336e-05),
    ("counterexample_h path 10", 4008, True, 1.0842021724855045e-20, 1.8310305272909442e-05),
    ("counterexample_h cycle 10", 2368, False, 1.0842021724855045e-20, 2.6607626777182762e-05),
    ("hardcore path 3", 5, True, 4.625929269271485e-18, 0.009219667801675033),
    ("hardcore cycle 4", 7, True, 0.0, 0.005808084889660368),
    ("widom_rowlinson path 2", 7, True, 6.938893903907228e-18, 0.011546134839177581),
    ("multistate_hardcore path 2", 6, True, 6.938893903907228e-18, 0.012921881222122983),
    ("hardcore cycle 6 +700", 18, True, 0.0, 1.760656525671389e-306),
    ("hardcore cycle 6 -700", 18, True, 0.0, 9.859676543759773e-306),
    ("13-coloring path 3", 1872, True, 3.614007241618348e-20, 3.9707761010612265e-05),
    ("2-coloring path 70", 2, False, 0.0, 0.0),
    ("3-coloring triangle", 6, False, 0.0, 0.0),
]


def _pinned_exact_models():
    for name, q, kind, n in PINNED_EXACT_SHAPES:
        h = preset(name, q=q)
        g = generate("grid", {"rows": n, "cols": 3}) if kind == "grid3" else generate(kind, {"n": n})
        yield f"{name} {kind} {n}", Model(g, h, [0.3, -0.2, 0.1][: h.q - 1])
    c6 = generate("cycle", {"n": 6})
    yield "hardcore cycle 6 +700", Model(c6, HARD, [700.0])
    yield "hardcore cycle 6 -700", Model(c6, HARD, [-700.0])
    yield "13-coloring path 3", Model(PATH3, preset("proper_coloring", q=13), np.linspace(-0.6, 0.6, 12))
    yield "2-coloring path 70", Model(generate("path", {"n": 70}), preset("proper_coloring", q=2), [0.3])
    yield "3-coloring triangle", Model(TRIANGLE, COL3, [0.3, -0.3])


def test_exact_oracles_match_pinned_values():
    got = []
    for label, model in _pinned_exact_models():
        summary = enumerate_exact(model)
        S = summary.states.shape[0]
        skewed = summary.probabilities * (1 + np.arange(S) % 7 / 10)
        wrong = dataclasses.replace(summary, probabilities=skewed / skewed.sum())
        got.append((
            label,
            S,
            is_glauber_irreducible(model, summary),
            max_detailed_balance_violation(model, summary),
            max_detailed_balance_violation(model, wrong),
        ))
    assert [tuple(map(repr, row)) for row in got] == [
        tuple(map(repr, row)) for row in PINNED_EXACT_VALUES
    ]


def test_state_table_is_a_read_only_view():
    model = Model(generate("grid", {"rows": 3, "cols": 3}), preset("widom_rowlinson"), [0.2, -0.4])
    summary = enumerate_exact(model)
    table = summary.state_probabilities
    eager = dict(zip(map(tuple, summary.states.tolist()), summary.probabilities.tolist()))
    assert dict(table) == eager
    assert list(table) == list(eager)  # lexicographic order
    assert len(table) == len(eager) == summary.states.shape[0]
    first = next(iter(eager))
    assert table[first] == eager[first] and type(table[first]) is float
    assert table[tuple(np.array(first, dtype=np.int64))] == eager[first]
    absent = (1, 2) + (0,) * 7  # two species side by side
    assert absent not in eager
    for key in [absent, first[:-1], first + (0,), (3,) * 9, (-1,) * 9, (0.5,) * 9, list(first), "x"]:
        with pytest.raises(KeyError):
            table[key]
        assert table.get(key) is None
    assert first in table and absent not in table
    with pytest.raises(TypeError):
        table[first] = 0.5
    # the view reads the summary it came from
    skewed = dataclasses.replace(summary, probabilities=np.full(len(eager), 1 / len(eager)))
    assert skewed.state_probabilities[first] == 1 / len(eager)


def test_state_table_len_builds_no_tuples():
    summary = enumerate_exact(Model(generate("path", {"n": 20}), HARD, [0.0]))
    tracemalloc.start()
    try:
        count = len(summary.state_probabilities)
        used = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 17711  # Fibonacci: independent sets of the 20-path
    assert used < 4096


def test_exact_oracles_share_allowed_sets_and_moves(monkeypatch):
    calls = {"_allowed_sets": 0, "_single_site_moves": 0}

    def counted(name):
        original = getattr(sampler_module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(sampler_module, name, wrapper)

    counted("_allowed_sets")
    counted("_single_site_moves")
    model = Model(generate("cycle", {"n": 8}), COL3, [0.2, -0.1])
    summary = enumerate_exact(model)
    assert max_detailed_balance_violation(model, summary) <= 1e-15
    irreducible = is_glauber_irreducible(model, summary)
    assert max_detailed_balance_violation(model, summary) <= 1e-15
    assert calls == {"_allowed_sets": 1, "_single_site_moves": 1}
    assert irreducible is False  # the alternating 3-colorings of an even cycle are frozen
    tv_distance_empirical(model, sweeps=2, replicates=10, summary=summary)
    assert calls == {"_allowed_sets": 1, "_single_site_moves": 1}


def test_exact_checks_reject_a_summary_of_another_model():
    c6 = generate("cycle", {"n": 6})
    summary = enumerate_exact(Model(c6, HARD, [0.1]))
    checks = [
        max_detailed_balance_violation,
        is_glauber_irreducible,
        lambda m, s: tv_distance_empirical(m, sweeps=5, replicates=10, summary=s),
    ]
    others = [
        (Model(c6, HARD, [1.5]), "activities"),
        (Model(generate("cycle", {"n": 7}), HARD, [0.1]), "graph"),
        (Model(generate("path", {"n": 6}), HARD, [0.1]), "graph"),
        (Model(c6, preset("proper_coloring", q=2), [0.1]), "constraint graph"),
    ]
    # equal graph, constraint graph and activities, all built anew
    same = Model(generate("cycle", {"n": 6}), ConstraintGraph(2, [(0, 1), (0, 0)]), [0.1])
    for check in checks:
        for other, what in others:
            with pytest.raises(ParameterError, match=f"different {what}"):
                check(other, summary)
        check(same, summary)
    # a copy with other probabilities still belongs to the model it came from
    wrong = dataclasses.replace(summary, probabilities=np.full(18, 1 / 18))
    assert max_detailed_balance_violation(same, wrong) > 1e-4  # uniform is stationary only at 0
    assert is_glauber_irreducible(same, wrong) is True


def test_negative_sweeps_and_no_replicates_are_rejected():
    model = Model(PATH3, HARD, [0.0])
    with pytest.raises(ParameterError, match="nonnegative"):
        sample(model, burn_in_sweeps=-2)
    with pytest.raises(ParameterError, match="nonnegative"):
        sample_many(model, 3, burn_in_sweeps=-2)
    with pytest.raises(ParameterError, match="nonnegative"):
        tv_distance_empirical(model, sweeps=-1, replicates=10)
    with pytest.raises(ParameterError, match="positive"):
        tv_distance_empirical(model, sweeps=5, replicates=0)
    assert sample_many(model, 3, burn_in_sweeps=0).shape == (3, 3)


def test_enumerate_infeasible_model():
    with pytest.raises(InfeasibleModelError):
        enumerate_exact(Model(TRIANGLE, preset("proper_coloring", q=2), [0.0]))
