"""Pseudo-likelihood values, derivatives, estimators, and eigen diagnostics."""
from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest

from hcolor.errors import (
    FeasibilityUnknownError,
    InfeasibleModelError,
    InvalidConfigurationError,
    ParameterError,
)
from hcolor.graphs import generate
import hcolor.pseudolikelihood as pl
from hcolor.model import Model, allowed_matrix, is_valid, preset
from hcolor.pseudolikelihood import (
    DEGENERATE_NEG,
    DEGENERATE_NONE,
    DEGENERATE_POS,
    PLState,
    log_pl,
    min_eigenvalue_neg_hessian,
    mpl_fit,
    mpl_hardcore,
    pl_gradient,
    pl_hessian,
    report_to_json,
    symmetric_eigenvalues,
)
from hcolor.sampler import find_valid_configuration, sample

HARD = preset("hardcore")
K2 = generate("complete", {"n": 2})
PATH3 = generate("path", {"n": 3})
TRIANGLE = generate("complete", {"n": 3})
COL3 = preset("proper_coloring", q=3)

PRESET_POOL = [
    HARD,
    preset("widom_rowlinson"),
    preset("multistate_hardcore", q=2),
    preset("multistate_hardcore", q=3),
    COL3,
    preset("proper_coloring", q=4),
    preset("proper_coloring", q=5),
    preset("counterexample_h"),
]


def _random_instance(trial: int):
    """Deterministic (graph, h, cfg, b) quadruple with n <= 30, q <= 5."""
    rng = np.random.default_rng(1000 + trial)
    h = PRESET_POOL[trial % len(PRESET_POOL)]
    n = int(rng.integers(2, 31))
    g = generate("erdos_renyi", {"n": n, "c": float(rng.uniform(0.5, 2.5))}, seed=trial)
    try:
        find_valid_configuration(g, h, seed=trial, budget=200_000)
    except (InfeasibleModelError, FeasibilityUnknownError):
        return None
    cfg = sample(Model(g, h, rng.uniform(-1, 1, size=h.q - 1)), burn_in_sweeps=15, seed=trial)
    b = rng.uniform(-2, 2, size=h.q - 1)
    return g, h, cfg, b


def test_log_pl_hardcore_k2():
    assert log_pl([0, 0], K2, HARD, [0.0]) == pytest.approx(-math.log(2))


def test_log_pl_forced_model_is_zero():
    assert log_pl([0, 1, 2], TRIANGLE, COL3, [0.7, -1.3]) == 0.0


def test_log_pl_rejects_invalid():
    with pytest.raises(InvalidConfigurationError):
        log_pl([1, 1], K2, HARD, [0.0])
    with pytest.raises(ParameterError):
        log_pl([0, 0], K2, HARD, [0.0, 1.0])


def test_gradient_hand_value():
    # occupied end contributes 1/2, blocked end contributes 0
    assert pl_gradient([1, 0], K2, HARD, [0.0])[0] == pytest.approx(0.25)


def test_gradient_zero_at_closed_form_estimate():
    cfg = [0, 0, 1]
    beta_hat = mpl_hardcore(cfg, PATH3).beta_hat
    grad = pl_gradient(cfg, PATH3, HARD, beta_hat)
    assert abs(grad[0]) < 1e-12


def test_gradient_bounded():
    for trial in range(30):
        inst = _random_instance(trial)
        if inst is None:
            continue
        g, h, cfg, b = inst
        grad = pl_gradient(cfg, g, h, b)
        assert np.all(np.abs(grad) <= 1.0)


def test_gradient_matches_finite_differences():
    step = 1e-5
    checked = 0
    for trial in range(40):
        inst = _random_instance(trial)
        if inst is None:
            continue
        g, h, cfg, b = inst
        grad = pl_gradient(cfg, g, h, b)
        for r in range(h.q - 1):
            e = np.zeros(h.q - 1)
            e[r] = step
            fd = (log_pl(cfg, g, h, b + e) - log_pl(cfg, g, h, b - e)) / (2 * step)
            assert abs(fd - grad[r]) <= 1e-6
        checked += 1
    assert checked >= 25


def test_hessian_hand_value_and_symmetry():
    hess = pl_hessian([0, 0], K2, HARD, [0.0])
    assert hess[0, 0] == pytest.approx(-0.25)
    inst = _random_instance(1)
    g, h, cfg, b = inst
    hh = pl_hessian(cfg, g, h, b)
    assert np.allclose(hh, hh.T)


def test_hessian_forced_model_zero():
    assert np.all(pl_hessian([0, 1, 2], TRIANGLE, COL3, [0.0, 0.0]) == 0.0)


def test_hessian_matches_finite_differences():
    step = 1e-5
    for trial in range(20):
        inst = _random_instance(trial)
        if inst is None:
            continue
        g, h, cfg, b = inst
        hess = pl_hessian(cfg, g, h, b)
        for r in range(h.q - 1):
            e = np.zeros(h.q - 1)
            e[r] = step
            fd = (pl_gradient(cfg, g, h, b + e) - pl_gradient(cfg, g, h, b - e)) / (2 * step)
            assert np.max(np.abs(fd - hess[:, r])) <= 1e-5


def test_neg_hessian_psd_and_lipschitz():
    for trial in range(30):
        inst = _random_instance(trial)
        if inst is None:
            continue
        g, h, cfg, b = inst
        eig = np.linalg.eigvalsh(-pl_hessian(cfg, g, h, b))
        assert eig[0] >= -1e-10
        assert eig[-1] <= 1.0 + 1e-10


def test_jacobi_matches_numpy():
    rng = np.random.default_rng(5)
    for size in [1, 2, 3, 4, 6]:
        for _ in range(10):
            m = rng.normal(size=(size, size))
            a = (m + m.T) / 2
            mine = symmetric_eigenvalues(a)
            ref = np.linalg.eigvalsh(a)
            assert np.max(np.abs(mine - ref)) < 1e-10
    with pytest.raises(ParameterError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_min_eigenvalue_scalar_case():
    # q = 2: the summands are bernoulli variances, lambda_min is their mean
    cfg = [0, 0]
    got = min_eigenvalue_neg_hessian(cfg, K2, HARD, [0.3])
    theta = math.exp(0.3) / (1 + math.exp(0.3))
    assert got == pytest.approx(theta * (1 - theta))


def test_min_eigenvalue_forced_model():
    assert min_eigenvalue_neg_hessian([0, 1, 2], TRIANGLE, COL3, [0.0, 0.0]) == 0.0


def test_per_vertex_multinomial_eigen_bound():
    # every vertex whose allowed-color probabilities all exceed eps0/2
    # contributes a summand with smallest eigenvalue >= p_0 * min_r p_r
    # (Cauchy-Schwarz with weights p); checked against a direct eigen-solve
    rng = np.random.default_rng(12)
    for _ in range(50):
        q = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(q))
        eps0 = 2 * p.min()
        cov = np.diag(p[1:]) - np.outer(p[1:], p[1:])
        lam = np.linalg.eigvalsh(cov)[0]
        assert lam >= (eps0 / 2) * p[0] - 1e-12
    # the naive strengthening lambda_min >= eps0/2 fails in a thin band just
    # above the threshold, so the p_0 factor is genuinely needed:
    p = np.array([0.895, 0.105])  # all entries > eps0/2 = 0.1
    assert p[1] * p[0] < 0.1


def test_mpl_hardcore_examples():
    rep = mpl_hardcore([0, 0, 1], PATH3)
    assert rep.beta_hat[0] == pytest.approx(0.0)
    assert rep.degenerate == (DEGENERATE_NONE,)

    rep = mpl_hardcore([0, 0, 0], PATH3)
    assert rep.beta_hat[0] == -np.inf
    assert rep.degenerate == (DEGENERATE_NEG,)

    star = generate("star", {"leaves": 3})
    rep = mpl_hardcore([0, 1, 1, 1], star)
    assert rep.beta_hat[0] == np.inf
    assert rep.degenerate == (DEGENERATE_POS,)


def test_mpl_fit_matches_closed_form():
    matched = 0
    for seed in range(25):
        g = generate("erdos_renyi", {"n": 20, "c": 2.0}, seed=seed)
        cfg = sample(Model(g, HARD, [0.3]), burn_in_sweeps=40, seed=seed)
        closed = mpl_hardcore(cfg, g)
        if closed.is_degenerate:
            continue
        fitted = mpl_fit(cfg, g, HARD, tol=1e-10)
        assert abs(fitted.beta_hat[0] - closed.beta_hat[0]) <= 1e-6
        matched += 1
    assert matched >= 15


def test_mpl_fit_forced_model_returns_init():
    init = np.array([0.37, -0.8])
    rep = mpl_fit([0, 1, 2], TRIANGLE, COL3, init=init)
    assert np.allclose(rep.beta_hat, init)
    assert rep.iterations == 0
    assert rep.rank_deficient
    assert rep.min_eigenvalue_neg_hessian_at_fit == 0.0


def test_mpl_fit_degenerate_color_flagged():
    # a color that never occurs drives its activity to -infinity
    g = generate("path", {"n": 4})
    wr = preset("widom_rowlinson")
    cfg = [0, 1, 0, 0]  # species 2 absent but placeable at vertices 1 and 3
    rep = mpl_fit(cfg, g, wr, tol=1e-10)
    assert rep.degenerate[1] == DEGENERATE_NEG
    assert rep.beta_hat[1] == -np.inf
    assert rep.degenerate[0] == DEGENERATE_NONE
    assert np.isfinite(rep.beta_hat[0])
    # the finite coordinate still sits at a critical point of its own slice
    grad = pl_gradient(cfg, g, wr, [rep.beta_hat[0], -40.0])
    assert abs(grad[0]) <= 1e-8


def test_mpl_fit_alternating_two_coloring_is_doubly_degenerate():
    # on a path, avoiding one color forces strict alternation: the present
    # color has no slack (+inf) and the absent one never occurs (-inf)
    g = generate("path", {"n": 6})
    rep = mpl_fit([0, 1, 0, 1, 0, 1], g, COL3, tol=1e-10)
    assert rep.degenerate == (DEGENERATE_POS, DEGENERATE_NEG)
    assert rep.beta_hat[0] == np.inf and rep.beta_hat[1] == -np.inf
    # nothing is left free, so there is no curvature to report
    assert rep.min_eigenvalue_neg_hessian_at_fit is None
    assert not rep.rank_deficient
    assert json.loads(report_to_json(rep))["lambda_min"] is None


def test_mpl_fit_curvature_excludes_flagged_coordinates():
    # species 2 never occurs, so b2 is flagged; b1 is well determined and its
    # 1x1 block has positive curvature, which the frozen b2 must not mask
    g = generate("cycle", {"n": 12})
    wr = preset("widom_rowlinson")
    cfg = [0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1]
    rep = mpl_fit(cfg, g, wr, tol=1e-12)
    assert rep.degenerate == (DEGENERATE_NONE, DEGENERATE_NEG)
    free_block = -pl_hessian(cfg, g, wr, [rep.beta_hat[0], -40.0])[0, 0]
    assert rep.min_eigenvalue_neg_hessian_at_fit == pytest.approx(free_block, rel=1e-9)
    assert rep.min_eigenvalue_neg_hessian_at_fit == pytest.approx(35 / 144, rel=1e-6)
    assert not rep.rank_deficient


def test_mpl_fit_undetermined_free_coordinate_stays_rank_deficient():
    # b1 is free but no informative vertex can take color 1 or swap it away:
    # the free block is zero and b1 is just init
    g = generate("path", {"n": 5})
    rep = mpl_fit([1, 0, 2, 3, 2], g, preset("counterexample_h"))
    assert rep.degenerate == (DEGENERATE_NONE, DEGENERATE_NEG, DEGENERATE_POS)
    assert rep.beta_hat[0] == 0.0
    assert rep.min_eigenvalue_neg_hessian_at_fit == 0.0
    assert rep.rank_deficient


def test_mpl_fit_root_verified_by_bisection():
    # a proper 3-coloring of the 10-cycle that uses every color with slack,
    # keeping the fit non-degenerate with healthy curvature
    g = generate("cycle", {"n": 10})
    cfg = [0, 1, 2, 1, 0, 1, 0, 2, 0, 2]
    rep = mpl_fit(cfg, g, COL3, tol=1e-12)
    assert not rep.is_degenerate
    assert rep.min_eigenvalue_neg_hessian_at_fit > 1e-3
    for r in range(2):
        def partial(t: float) -> float:
            b = rep.beta_hat.copy()
            b[r] = t
            return pl_gradient(cfg, g, COL3, b)[r]

        lo, hi = rep.beta_hat[r] - 2.0, rep.beta_hat[r] + 2.0
        assert partial(lo) > 0 > partial(hi)  # strictly decreasing coordinate map
        for _ in range(60):
            mid = (lo + hi) / 2
            if partial(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert abs((lo + hi) / 2 - rep.beta_hat[r]) <= 1e-6


def test_mpl_fit_validates_inputs():
    with pytest.raises(ParameterError):
        mpl_fit([0, 0], K2, HARD, init=[np.nan])
    for bad in [{"tol": -1.0}, {"tol": np.nan}]:
        with pytest.raises(ParameterError):
            mpl_fit([0, 1], K2, HARD, **bad)
    with pytest.raises(TypeError):  # the step cap is a constant
        mpl_fit([0, 1], K2, HARD, step=1.0)
    with pytest.raises(TypeError):  # tol is keyword-only
        mpl_fit([0, 1], K2, HARD, None, 1e-8)
    with pytest.raises(InvalidConfigurationError):
        mpl_fit([1, 1], K2, HARD)


def test_report_json_encodes_infinities():
    rep = mpl_hardcore([0, 0, 0], PATH3)
    text = report_to_json(rep)
    assert '"-inf"' in text
    assert '"rainbow_fractions"' in text


def test_mpl_fit_reference_color_without_slack_flags_all_neg():
    # color 0 is allowed only at its own vertices, not all of them forced:
    # the log-PL rises strictly along b -> b - t * 1, off every axis
    g = generate("cycle", {"n": 10})
    cfg = [0, 2, 0, 2, 1, 0, 1, 2, 0, 1]
    assert log_pl(cfg, g, COL3, [-5.0, -5.0]) > log_pl(cfg, g, COL3, [0.0, 0.0])
    rep = mpl_fit(cfg, g, COL3)
    assert rep.degenerate == (DEGENERATE_NEG, DEGENERATE_NEG)
    assert np.all(rep.beta_hat == -np.inf)
    # all of color 0's vertices forced: nothing runs off, init comes back
    rep = mpl_fit([0, 1, 2], TRIANGLE, COL3, init=[0.37, -0.8])
    assert rep.degenerate == (DEGENERATE_NONE, DEGENERATE_NONE)
    assert np.allclose(rep.beta_hat, [0.37, -0.8]) and rep.iterations == 0


def test_mpl_fit_absent_reference_color_flags_all_pos():
    # color 0 never occurs but is allowed everywhere, while colors 1-3 each
    # have slack: the log-PL rises strictly along b -> b + t * 1
    g = generate("path", {"n": 6})
    col4 = preset("proper_coloring", q=4)
    cfg = [1, 2, 3, 1, 3, 2]
    assert log_pl(cfg, g, col4, [5.0] * 3) > log_pl(cfg, g, col4, [0.0] * 3)
    rep = mpl_fit(cfg, g, col4)
    assert rep.degenerate == (DEGENERATE_POS,) * 3
    assert np.all(rep.beta_hat == np.inf)


def test_mpl_fit_reports_convergence():
    g = generate("cycle", {"n": 10})
    cfg = [0, 1, 2, 1, 0, 1, 0, 2, 0, 2]
    rep = mpl_fit(cfg, g, COL3, tol=1e-12)
    assert rep.converged and rep.final_gradient_norm <= 1e-12
    cut = mpl_fit(cfg, g, COL3, tol=1e-12, max_iter=1)
    assert cut.iterations == 1
    assert not cut.converged and cut.final_gradient_norm > 1e-12
    assert mpl_hardcore([0, 0, 1], PATH3).converged


@pytest.mark.parametrize("beta", [[0.3, -0.3], [-0.2, 0.1]])
def test_mpl_fit_newton_iterations_on_cycle_coloring(beta):
    g = generate("cycle", {"n": 1000})
    cfg = sample(Model(g, COL3, beta), burn_in_sweeps=100, seed=11)
    rep = mpl_fit(cfg, g, COL3)
    assert not rep.is_degenerate
    assert rep.converged and rep.iterations <= 20


def test_mpl_fit_newton_iterations_on_hardcore_closed_form_inputs():
    # the 100 non-degenerate inputs of acceptance criterion 2, at its
    # tolerance: the line search must not stall below rounding level
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
        rng = np.random.default_rng(20250808 + 31 * trial)
        kind, params = kinds[trial % len(kinds)]
        n = int(rng.integers(8, 40))
        if kind == "random_regular" and n % 2:
            n += 1
        g = generate(kind, {**params, "n": n}, seed=trial)
        beta = float(rng.uniform(-1, 1))
        cfg = sample(Model(g, HARD, [beta]), burn_in_sweeps=40, seed=trial)
        if mpl_hardcore(cfg, g).is_degenerate:
            continue
        rep = mpl_fit(cfg, g, HARD, tol=1e-10)
        assert rep.converged and rep.iterations <= 20, (trial, rep.iterations)
        checked += 1


def test_mpl_fit_flags_two_color_runaway():
    # colors 1 and 3 replace each other and color 0, but nothing replaces
    # them: the log-PL rises along b1 = b3 -> -inf, off every axis and off
    # the reference direction; b2 keeps the finite value log(1/2)
    g = generate("path", {"n": 5})
    col4 = preset("proper_coloring", q=4)
    cfg = [0, 1, 2, 3, 0]
    b2 = math.log(0.5)
    assert log_pl(cfg, g, col4, [-5.0, b2, -5.0]) > log_pl(cfg, g, col4, [0.0, b2, 0.0])
    rep = mpl_fit(cfg, g, col4, tol=1e-10)
    assert rep.degenerate == (DEGENERATE_NEG, DEGENERATE_NONE, DEGENERATE_NEG)
    assert rep.converged
    assert rep.beta_hat[1] == pytest.approx(b2, abs=1e-8)


def test_mpl_fit_no_unflagged_runaway_on_small_paths():
    # every valid coloring of the 5-path: each activity is either flagged or
    # settles at a moderate finite value, never drifting off unflagged
    g = generate("path", {"n": 5})
    fits = 0
    for h in [preset("proper_coloring", q=4), preset("counterexample_h"), preset("widom_rowlinson")]:
        for cfg in itertools.product(range(h.q), repeat=g.n):
            if not is_valid(cfg, g, h):
                continue
            rep = mpl_fit(list(cfg), g, h)
            finite = rep.beta_hat[np.isfinite(rep.beta_hat)]
            assert rep.converged, cfg
            assert np.all(np.abs(finite) <= 10.0), (cfg, rep.beta_hat)
            fits += 1
    assert fits == 507


def _per_vertex_reference(cfg, g, h, b):
    """Log-PL, gradient and Hessian summed vertex by vertex over the (n, q)
    allowed matrix."""
    colors = np.asarray(cfg)
    allowed = allowed_matrix(colors, g, h)
    b_full = np.concatenate([[0.0], b])
    scores = np.where(allowed, b_full, -np.inf)
    m = scores.max(axis=1)
    w = np.exp(scores - m[:, None])
    log_norm = m + np.log(w.sum(axis=1))
    t = (w / w.sum(axis=1, keepdims=True))[:, 1:]
    n = colors.shape[0]
    value = float((b_full[colors] - log_norm).mean())
    grad = np.bincount(colors, minlength=h.q)[1:] / n - t.mean(axis=0)
    hess = -(np.diag(t.sum(axis=0)) - t.T @ t) / n
    return value, grad, hess


def _per_vertex_state(cfg, g, h):
    """A PLState with one pattern row per vertex, so every sum runs vertex
    by vertex."""
    colors = np.asarray(cfg)
    return PLState(
        patterns=allowed_matrix(colors, g, h),
        table=np.eye(h.q, dtype=np.int64)[colors],
        n=colors.shape[0],
        counts=np.bincount(colors, minlength=h.q),
    )


def _equivalence_cases():
    path5 = generate("path", {"n": 5})
    for h in PRESET_POOL:
        for cfg in itertools.product(range(h.q), repeat=5):
            if is_valid(cfg, path5, h):
                yield path5, h, list(cfg)
    rng = np.random.default_rng(77)
    for trial, h in enumerate(PRESET_POOL + [preset("proper_coloring", q=70)]):
        g = generate("grid", {"rows": 10, "cols": 20})
        beta = rng.uniform(-1, 1, size=h.q - 1)
        yield g, h, sample(Model(g, h, beta), burn_in_sweeps=20, seed=trial)


def test_histogram_matches_per_vertex_sums(monkeypatch):
    checked = wide = 0
    for g, h, cfg in _equivalence_cases():
        state = PLState.from_configuration(cfg, g, h)
        assert state.table.sum() == g.n and state.patterns.shape[0] <= g.n
        assert len({row.tobytes() for row in state.patterns}) == state.patterns.shape[0]
        b = np.random.default_rng(checked).uniform(-2, 2, size=h.q - 1)
        value, grad, hess = _per_vertex_reference(cfg, g, h, b)
        assert abs(log_pl(cfg, g, h, b) - value) <= 1e-12
        assert np.max(np.abs(pl_gradient(cfg, g, h, b) - grad)) <= 1e-12
        assert np.max(np.abs(pl_hessian(cfg, g, h, b) - hess)) <= 1e-12

        rep = mpl_fit(cfg, g, h)
        with monkeypatch.context() as m:
            m.setattr(PLState, "from_configuration", _per_vertex_state)
            ref = mpl_fit(cfg, g, h)
        assert rep.degenerate == ref.degenerate, cfg
        assert (rep.converged, rep.rank_deficient) == (ref.converged, ref.rank_deficient)
        finite = np.isfinite(ref.beta_hat)
        assert np.array_equal(rep.beta_hat[~finite], ref.beta_hat[~finite])
        assert np.max(np.abs(rep.beta_hat[finite] - ref.beta_hat[finite]), initial=0.0) <= 1e-10
        checked += 1
        wide += h.q > 62
    assert wide == 1 and checked > 1000


@pytest.mark.parametrize("beta", [[0.3, -0.3], [-0.2, 0.1]])
def test_mpl_fit_evaluates_once_per_line_search_trial(monkeypatch, beta):
    g = generate("cycle", {"n": 1000})
    cfg = sample(Model(g, COL3, beta), burn_in_sweeps=100, seed=11)
    points = []
    evaluate = pl._evaluate

    def counted(state, b_full):
        points.append(b_full[1:].copy())
        return evaluate(state, b_full)

    monkeypatch.setattr(pl, "_evaluate", counted)
    rep = mpl_fit(cfg, g, COL3)
    # every step here is a full Newton step, accepted at its first trial,
    # and the accepted trial's gradient is the one the report carries
    assert len(points) == rep.iterations + 1
    assert np.array_equal(points[-1], rep.beta_hat)
    state = PLState.from_configuration(cfg, g, COL3)
    _, grad, _ = evaluate(state, np.concatenate([[0.0], rep.beta_hat]))
    assert rep.final_gradient_norm == float(np.abs(grad).max())
