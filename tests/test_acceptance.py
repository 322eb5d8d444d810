"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The consistency fixtures
are shared between the error-scaling criteria and the curvature criterion, so
the expensive sampling happens once per session.

Threshold provenance (see also tests/test_experiments.py calibration tests):
- the gradient-concentration constant 2.0 has ~9x headroom over the exact
  small-cycle values (~0.22);
- the TV threshold 0.02 is double the worst binomial sampling-error budget
  (~0.0101 at 20000 replicates) over the TV-checked model set; larger models
  are balance-checked only, since at 20000 replicates their sampling error
  alone would exceed the threshold.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from hcolor.errors import FeasibilityUnknownError, InfeasibleModelError
from hcolor.experiments import (
    GraphFamily,
    ModelFamily,
    consistency_experiment,
    gradient_concentration,
    kl_exact,
    rainbow_check,
)
from hcolor.graphs import (
    generate,
    neighborhood_disjoint_size_bound,
    neighborhood_disjoint_subset,
)
from hcolor.model import Model, is_valid, preset
from hcolor.pseudolikelihood import (
    log_pl,
    min_eigenvalue_neg_hessian,
    mpl_fit,
    mpl_hardcore,
    pl_gradient,
    pl_hessian,
    symmetric_eigenvalues,
)
from hcolor.sampler import (
    default_burn_in,
    enumerate_exact,
    find_valid_configuration,
    is_glauber_irreducible,
    max_detailed_balance_violation,
    sample,
    tv_distance_empirical,
)

SEED = 20250808
HARD = preset("hardcore")
COL3 = preset("proper_coloring", q=3)

H_POOL = [
    HARD,
    preset("widom_rowlinson"),
    preset("multistate_hardcore", q=2),
    preset("multistate_hardcore", q=3),
    COL3,
    preset("proper_coloring", q=4),
    preset("proper_coloring", q=5),
    preset("counterexample_h"),
]


def _random_instances(count: int, max_n: int = 30):
    """Deterministic stream of (graph, h, valid cfg, b) with q <= 5."""
    made = 0
    trial = 0
    while made < count:
        trial += 1
        rng = np.random.default_rng(SEED + trial)
        h = H_POOL[trial % len(H_POOL)]
        n = int(rng.integers(2, max_n + 1))
        g = generate("erdos_renyi", {"n": n, "c": float(rng.uniform(0.5, 2.5))}, seed=trial)
        try:
            find_valid_configuration(g, h, seed=trial, budget=200_000)
        except (InfeasibleModelError, FeasibilityUnknownError):
            continue
        beta = rng.uniform(-1, 1, size=h.q - 1)
        cfg = sample(Model(g, h, beta), burn_in_sweeps=15, seed=trial)
        b = rng.uniform(-2, 2, size=h.q - 1)
        made += 1
        yield g, h, cfg, b


def test_criterion_01_gradient_and_hessian_match_finite_differences():
    step = 1e-5
    for g, h, cfg, b in _random_instances(200):
        grad = pl_gradient(cfg, g, h, b)
        hess = pl_hessian(cfg, g, h, b)
        for r in range(h.q - 1):
            e = np.zeros(h.q - 1)
            e[r] = step
            fd_g = (log_pl(cfg, g, h, b + e) - log_pl(cfg, g, h, b - e)) / (2 * step)
            assert abs(fd_g - grad[r]) <= 1e-6
            fd_h = (pl_gradient(cfg, g, h, b + e) - pl_gradient(cfg, g, h, b - e)) / (2 * step)
            assert np.max(np.abs(fd_h - hess[:, r])) <= 1e-5
    print("PASS criterion 1: gradient FD <= 1e-6 and Hessian FD <= 1e-5 on 200 instances")


def test_criterion_02_hardcore_closed_form_equals_optimizer():
    kinds = [
        ("cycle", {}),
        ("path", {}),
        ("random_regular", {"d": 3}),
        ("erdos_renyi", {"c": 1.8}),
    ]
    checked = 0
    trial = 0
    while checked < 100:
        trial += 1
        rng = np.random.default_rng(SEED + 31 * trial)
        kind, params = kinds[trial % len(kinds)]
        n = int(rng.integers(8, 40))
        if kind == "random_regular" and n % 2:
            n += 1
        g = generate(kind, {**params, "n": n}, seed=trial)
        beta = float(rng.uniform(-1, 1))
        cfg = sample(Model(g, HARD, [beta]), burn_in_sweeps=40, seed=trial)
        closed = mpl_hardcore(cfg, g)
        if closed.is_degenerate:
            continue
        fitted = mpl_fit(cfg, g, HARD, tol=1e-10)
        assert not fitted.is_degenerate
        assert abs(fitted.beta_hat[0] - closed.beta_hat[0]) <= 1e-6
        checked += 1
    print("PASS criterion 2: closed form vs optimizer <= 1e-6 on 100 non-degenerate instances")


def _sampler_test_set():
    """(name, model, tv_checked) triples; all state spaces <= 4096."""
    k2 = generate("complete", {"n": 2})
    path3 = generate("path", {"n": 3})
    entries = [
        ("hardcore K2", Model(k2, HARD, [0.0]), True),
        ("hardcore path3 act=2", Model(path3, HARD, [math.log(2)]), True),
        ("hardcore cycle5", Model(generate("cycle", {"n": 5}), HARD, [0.0]), True),
        ("hardcore star3", Model(generate("star", {"leaves": 3}), HARD, [-0.2]), True),
        ("widom-rowlinson K2", Model(k2, preset("widom_rowlinson"), [0.2, -0.1]), True),
        ("multistate path3", Model(path3, preset("multistate_hardcore", q=2), [0.1, 0.25]), True),
        ("coloring3 path3", Model(path3, COL3, [0.3, -0.3]), True),
        # larger or non-irreducible: balance-checked only (binomial TV budget
        # at 20000 replicates would exceed the 0.02 threshold, or the chain
        # cannot reach every state)
        ("coloring3 triangle", Model(generate("complete", {"n": 3}), COL3, [0.0, 0.0]), False),
        ("coloring3 cycle6", Model(generate("cycle", {"n": 6}), COL3, [0.2, 0.1]), False),
        ("hardcore cycle16", Model(generate("cycle", {"n": 16}), HARD, [0.3]), False),
        ("hardcore grid3x4", Model(generate("grid", {"rows": 3, "cols": 4}), HARD, [-0.4]), False),
    ]
    return entries


def test_criterion_03_sampler_detailed_balance_and_tv():
    for name, model, tv_checked in _sampler_test_set():
        summary = enumerate_exact(model)
        assert len(summary.state_probabilities) <= 4096, name
        assert max_detailed_balance_violation(model, summary) <= 1e-10, name
        if tv_checked:
            assert is_glauber_irreducible(model, summary), name
            tv = tv_distance_empirical(
                model, sweeps=default_burn_in(model.n), replicates=20000, seed=SEED
            )
            assert tv < 0.02, (name, tv)
    print("PASS criterion 3: detailed balance <= 1e-10 everywhere; TV < 0.02 on irreducible set")


def test_criterion_04_partition_derivative_identity():
    step = 1e-4
    checked = 0
    trial = 0
    while checked < 50:
        trial += 1
        rng = np.random.default_rng(SEED + 7 * trial)
        h = H_POOL[trial % len(H_POOL)]
        n = int(rng.integers(3, 10))
        g = generate("erdos_renyi", {"n": n, "c": 1.5}, seed=trial)
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
            expect = base.expected_counts[r + 1]
            assert abs(fd - expect) <= 1e-6 * max(abs(expect), 1e-3), (trial, r)
        checked += 1
    print("PASS criterion 4: E[count_r] matches FD of log-partition (rel 1e-6) on 50 models")


N_GRID = (256, 1024, 4096)
REPLICATES = 50


@pytest.fixture(scope="module")
def hardcore_consistency():
    betas = [[-0.5], [0.0], [0.7]]
    out = {}
    for kind, params in [("cycle", {}), ("random_regular", {"d": 3})]:
        fam = GraphFamily(kind, params)
        rows, samples = consistency_experiment(
            fam, HARD, betas, N_GRID, REPLICATES, seed=SEED, h_name="hardcore",
            return_samples=True,
        )
        out[kind] = (rows, samples, betas)
    return out


@pytest.fixture(scope="module")
def coloring_consistency():
    fam = GraphFamily("cycle", {})
    rows, samples = consistency_experiment(
        fam, COL3, [0.3, -0.3], N_GRID, REPLICATES, seed=SEED, h_name="coloring3",
        return_samples=True,
    )
    return rows, samples


def _check_ratio_band(rows, betas):
    by_beta = {}
    for row in rows:
        by_beta.setdefault(row.beta_true, []).append(row)
    for beta, cells in by_beta.items():
        cells.sort(key=lambda r: r.n)
        assert all(r.degenerate_count == 0 for r in cells), beta
        for lo, hi in zip(cells, cells[1:]):
            ratio = hi.median_scaled_error / lo.median_scaled_error
            assert 0.5 <= ratio <= 2.0, (beta, lo.n, hi.n, ratio)


def test_criterion_05_hardcore_consistency_trend(hardcore_consistency):
    for kind, (rows, _, betas) in hardcore_consistency.items():
        _check_ratio_band(rows, betas)
    print("PASS criterion 5: hardcore scaled-error ratios within [1/2, 2], no degenerate fits")


def test_criterion_06_coloring_consistency_trend(coloring_consistency):
    rows, _ = coloring_consistency
    _check_ratio_band(rows, [[0.3, -0.3]])
    print("PASS criterion 6: 3-coloring scaled-error ratios within [1/2, 2], no degenerate fits")


def test_criterion_07_gradient_concentration():
    fam = ModelFamily(GraphFamily("cycle", {}), HARD, (0.0,), h_name="hardcore")
    out = gradient_concentration(fam, [64, 256, 1024], 100, seed=SEED)
    for n, value in out.items():
        assert value <= 2.0, (n, value)
    print(f"PASS criterion 7: n*E||grad||^2 = {out} all <= 2.0")


def _rainbow_curvature_check(samples, g_by_n, h, beta, eps=0.05):
    checked = 0
    beta = np.asarray(beta, dtype=np.float64)
    full = np.concatenate([[0.0], beta])
    j_const = float(np.min(np.exp(full[1:]) / np.exp(full).sum()))
    floor = (eps * j_const) ** 2 / 4
    for (n, _), block in samples.items():
        g = g_by_n[n]
        for cfg in block:
            rc = rainbow_check(cfg, g, h, eps_grid=(eps,))
            if min(rc.fractions[1:]) > eps:
                lam = min_eigenvalue_neg_hessian(cfg, g, h, beta)
                assert lam >= floor, (n, lam, floor)
                checked += 1
    return checked


def test_criterion_08_rainbow_implies_curvature(hardcore_consistency, coloring_consistency):
    from hcolor.experiments import _graph_seed

    total = 0
    for kind, (rows, samples, betas) in hardcore_consistency.items():
        fam = GraphFamily(kind, {} if kind == "cycle" else {"d": 3})
        g_by_n = {n: fam.build(n, seed=_graph_seed(SEED, n)) for n in N_GRID}
        for b_idx, beta in enumerate(betas):
            sub = {k: v for k, v in samples.items() if k[1] == b_idx}
            total += _rainbow_curvature_check(sub, g_by_n, HARD, beta)
    rows, samples = coloring_consistency
    fam = GraphFamily("cycle", {})
    g_by_n = {n: fam.build(n, seed=_graph_seed(SEED, n)) for n in N_GRID}
    total += _rainbow_curvature_check(samples, g_by_n, COL3, [0.3, -0.3])
    assert total > 0
    print(f"PASS criterion 8: curvature floor held on all {total} rainbow-qualified samples")


def test_criterion_09_triangles_family_impossibility():
    cx = preset("counterexample_h")
    cap_color = 3
    for n_tri in (1, 2, 3, 4):
        g = generate("triangles_plus_path", {"N": n_tri, "K": 3})
        summary = enumerate_exact(Model(g, cx, [0.0, 0.0, 0.0]))
        worst = max(state.count(cap_color) for state in summary.state_probabilities)
        assert worst <= 3  # only path vertices can ever carry the special color
    theta, theta_p = 0.8, -0.4
    values = []
    for n_tri in (1, 2, 4, 8, 16):
        g = generate("triangles_plus_path", {"N": n_tri, "K": 3})
        res = kl_exact(
            g, cx, [0.0, 0.0, theta], [0.0, 0.0, theta_p], method="component_factorized"
        )
        values.append(res.kl)
    assert max(values) - min(values) <= 1e-9
    print("PASS criterion 9: special-color count <= path length for all configs; KL constant in N")


def test_criterion_10_clique_bipartite_impossibility():
    theta, theta_p = -1.0, -0.5
    values = {}
    for num_big in (10, 20, 30, 40, 50, 60):
        g = generate("clique_bipartite", {"q": 3, "N": num_big})
        values[num_big] = kl_exact(g, COL3, [theta, 0.0], [theta_p, 0.0]).kl
    assert abs(values[60] - values[50]) < 1e-6
    diffs = [abs(values[b] - values[a]) for a, b in zip((10, 20, 30, 40, 50), (20, 30, 40, 50, 60))]
    assert all(x >= y for x, y in zip(diffs, diffs[1:]))
    # rainbow collapse: with the big side colored 0, color 1 is allowed only
    # at the single clique vertex carrying it
    for num_big in (10, 30, 60):
        g = generate("clique_bipartite", {"q": 3, "N": num_big})
        cfg = [1, 2] + [0] * num_big
        assert is_valid(cfg, g, COL3)
        rc = rainbow_check(cfg, g, COL3)
        assert min(rc.fractions[1:]) <= 2 / (num_big + 2)
    print("PASS criterion 10: KL converges (diff < 1e-6 by N=60); rainbow fraction collapses")


def test_criterion_11_neighborhood_disjoint_bound():
    rng = np.random.default_rng(SEED)
    families = ["erdos_renyi", "random_regular", "cycle", "grid"]
    for trial in range(100):
        kind = families[trial % len(families)]
        if kind == "erdos_renyi":
            n = int(rng.integers(10, 201))
            g = generate(kind, {"n": n, "c": float(rng.uniform(0.5, 3.0))}, seed=trial)
        elif kind == "random_regular":
            n = 2 * int(rng.integers(5, 100))
            g = generate(kind, {"n": n, "d": int(rng.integers(2, 5))}, seed=trial)
        elif kind == "cycle":
            n = int(rng.integers(10, 201))
            g = generate(kind, {"n": n})
        else:
            r, c = int(rng.integers(3, 15)), int(rng.integers(3, 15))
            g = generate(kind, {"rows": r, "cols": c})
        size = max(g.n // 2 + 1, 1)
        w = [int(v) for v in rng.choice(g.n, size=size, replace=False)]
        subset = neighborhood_disjoint_subset(g, w, seed=trial)
        assert set(subset) <= set(w)
        seen = set()
        for v in subset:
            nb = set(g.neighbors(v).tolist())
            assert not (nb & seen)
            seen |= nb
        assert len(subset) >= neighborhood_disjoint_size_bound(g), (kind, g.n)
    print("PASS criterion 11: disjointness and size bound on 100 random graphs")


def test_criterion_12_lipschitz_bound():
    probes = 0
    for g, h, cfg, b in _random_instances(125):
        for k in range(4):
            rng = np.random.default_rng(SEED + probes)
            bb = rng.uniform(-3, 3, size=h.q - 1)
            top = symmetric_eigenvalues(-pl_hessian(cfg, g, h, bb))[-1]
            assert top <= 1.0 + 1e-10
            probes += 1
    assert probes == 500
    print("PASS criterion 12: largest negated-Hessian eigenvalue <= 1 + 1e-10 at 500 probes")
