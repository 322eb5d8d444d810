"""Consistency machinery, KL oracle, concentration, and rainbow diagnostics."""
from __future__ import annotations

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

import hcolor.experiments as experiments
from hcolor.errors import FullyLooseConstraintError, InfeasibleModelError, ParameterError
from hcolor.experiments import (
    GraphFamily,
    ModelFamily,
    consistency_experiment,
    gradient_concentration,
    kl_exact,
    rainbow_check,
    rows_to_csv,
)
from hcolor.graphs import Graph, generate
from hcolor.model import ConstraintGraph, Model, preset
from hcolor.pseudolikelihood import pl_gradient
from hcolor.sampler import enumerate_exact

HARD = preset("hardcore")
COL3 = preset("proper_coloring", q=3)
CX = preset("counterexample_h")


def test_kl_zero_at_equal_parameters():
    g = generate("cycle", {"n": 5})
    res = kl_exact(g, HARD, [0.4], [0.4])
    assert res.kl == pytest.approx(0.0, abs=1e-12)
    assert res.method == "brute_force"
    assert res.n_parameter == 5


def test_kl_nonnegative_and_methods_agree():
    # 50 random disconnected models, components of size <= 8
    rng = np.random.default_rng(8)
    hs = [HARD, preset("widom_rowlinson"), COL3]
    for trial in range(50):
        h = hs[trial % len(hs)]
        parts = [
            {"kind": "path", "params": {"n": int(rng.integers(1, 5))}},
            {"kind": "cycle", "params": {"n": int(rng.integers(3, 8))}},
            {"kind": "star", "params": {"leaves": int(rng.integers(0, 5))}},
        ]
        g = generate("disjoint_union", {"parts": parts}, seed=trial)
        a = rng.uniform(-1, 1, size=h.q - 1)
        b = rng.uniform(-1, 1, size=h.q - 1)
        brute = kl_exact(g, h, a, b, method="brute_force")
        split = kl_exact(g, h, a, b, method="component_factorized")
        assert brute.kl >= -1e-12
        assert abs(brute.kl - split.kl) <= 1e-9


def test_kl_rejects_bad_method_and_shapes():
    g = generate("path", {"n": 3})
    with pytest.raises(ParameterError):
        kl_exact(g, HARD, [0.0], [0.0], method="guess")
    with pytest.raises(ParameterError):
        kl_exact(g, HARD, [0.0, 1.0], [0.0])


def test_kl_infeasible_model_raises_infeasible():
    # no proper 2-coloring of a triangle exists, whole or as a component
    g = generate("complete", {"n": 3})
    for method in ("brute_force", "component_factorized"):
        with pytest.raises(InfeasibleModelError):
            kl_exact(g, preset("proper_coloring", q=2), [0.0], [0.5], method=method)


def test_kl_accepts_constraint_graphs_a_model_rejects():
    # a fully loose constraint graph makes the vertices independent, so the
    # divergence is n times a Bernoulli divergence
    loose = ConstraintGraph(2, [(0, 0), (0, 1), (1, 1)])
    with pytest.raises(FullyLooseConstraintError):
        Model(generate("path", {"n": 4}), loose, [0.3])
    pa, pb = 1 / (1 + math.exp(-0.3)), 1 / (1 + math.exp(0.7))
    bern = pa * math.log(pa / pb) + (1 - pa) * math.log((1 - pa) / (1 - pb))
    res = kl_exact(generate("path", {"n": 4}), loose, [0.3], [-0.7])
    assert res.kl == pytest.approx(4 * bern, rel=1e-12)


def test_triangle_component_never_uses_pinned_color():
    # the fourth color attaches only to color 2, and two adjacent vertices
    # cannot both be 2, so no triangle vertex can ever carry it
    g = generate("complete", {"n": 3})
    summary = enumerate_exact(Model(g, CX, [0.0, 0.0, 0.0]))
    assert len(summary.state_probabilities) == 6  # the rainbow 0,1,2 orderings
    assert all(3 not in state for state in summary.state_probabilities)
    # the path component can use it, up to its own length
    path = generate("path", {"n": 3})
    s2 = enumerate_exact(Model(path, CX, [0.0, 0.0, 0.0]))
    best = max(state.count(3) for state in s2.state_probabilities)
    assert 1 <= best <= 3


def test_kl_triangles_family_constant_in_size():
    # triangles cannot carry the special color, so the divergence between two
    # settings of its activity comes from the path component alone
    theta, theta_p = 0.8, -0.4
    values = []
    for n_tri in (1, 2, 4, 8, 16):
        g = generate("triangles_plus_path", {"N": n_tri, "K": 3})
        res = kl_exact(g, CX, [0.0, 0.0, theta], [0.0, 0.0, theta_p], method="component_factorized")
        values.append(res.kl)
    assert max(values) - min(values) <= 1e-9
    assert values[0] > 0


def _clique_bipartite_closed_form_kl(num_big: int, theta: float, theta_p: float) -> float:
    # exact log-partition over the q=3 coloring classes: the two clique
    # vertices take the colors other than the common big-side color a
    def log_z(b1: float) -> float:
        betas = [0.0, b1, 0.0]
        terms = [
            betas[a] * num_big + sum(betas[s] for s in range(3) if s != a) for a in range(3)
        ]
        m = max(terms)
        return math.log(2.0) + m + math.log(sum(math.exp(t - m) for t in terms))

    def e_count1(b1: float) -> float:
        betas = [0.0, b1, 0.0]
        weights = []
        c1 = []
        for a in range(3):
            weights.append(math.exp(betas[a] * num_big + sum(betas[s] for s in range(3) if s != a)))
            c1.append(num_big if a == 1 else 1)
        z = sum(weights)
        return sum(w * c for w, c in zip(weights, c1)) / z

    return log_z(theta_p) - log_z(theta) - (theta_p - theta) * e_count1(theta)


def test_kl_clique_bipartite_matches_closed_form_and_converges():
    theta, theta_p = -1.0, -0.5
    values = {}
    for num_big in (5, 10, 20, 40, 50, 60):
        g = generate("clique_bipartite", {"q": 3, "N": num_big})
        res = kl_exact(g, COL3, [theta, 0.0], [theta_p, 0.0])
        closed = _clique_bipartite_closed_form_kl(num_big, theta, theta_p)
        assert res.kl == pytest.approx(closed, abs=1e-9)
        values[num_big] = res.kl
    assert abs(values[60] - values[50]) < 1e-6
    assert abs(values[60] - values[50]) < abs(values[10] - values[5])


def test_rainbow_check_edgeless_all_one():
    g = Graph(5)
    rc = rainbow_check([0, 1, 2, 0, 1], g, COL3)
    assert np.allclose(rc.fractions, 1.0)
    assert all(rc.satisfied.values())


def test_rainbow_check_hardcore_empty():
    g = generate("cycle", {"n": 8})
    rc = rainbow_check([0] * 8, g, HARD)
    assert rc.fractions[1] == pytest.approx(1.0)


def test_rainbow_check_clique_bipartite_collapse():
    num_big = 18
    g = generate("clique_bipartite", {"q": 3, "N": num_big})
    # big side colored 0, clique vertices use 1 and 2
    cfg = [1, 2] + [0] * num_big
    rc = rainbow_check(cfg, g, COL3)
    n = num_big + 2
    assert rc.fractions[0] >= num_big / n
    assert min(rc.fractions[1], rc.fractions[2]) <= 2 / n
    assert not rc.satisfied[(1, 0.2)]


def test_consistency_rows_reproducible_and_jobs_invariant():
    fam = GraphFamily("cycle", {})
    kwargs = dict(
        n_list=[24, 48],
        replicates=300,
        sampler_settings={"burn_in_sweeps": 15},
        seed=5,
        h_name="hardcore",
    )
    rows_a = consistency_experiment(fam, HARD, [0.2], **kwargs)
    rows_b = consistency_experiment(fam, HARD, [0.2], **kwargs)
    assert rows_a == rows_b
    rows_c = consistency_experiment(fam, HARD, [0.2], jobs=2, **kwargs)
    assert rows_a == rows_c


def test_consistency_zero_replicates():
    fam = GraphFamily("path", {})
    rows = consistency_experiment(fam, HARD, [0.0], [6], 0, seed=1)
    assert len(rows) == 1
    assert rows[0].replicate_count == 0
    assert rows[0].degenerate_count == 0
    assert math.isnan(rows[0].median_scaled_error)


def test_consistency_multi_beta_row_order():
    fam = GraphFamily("cycle", {})
    rows = consistency_experiment(
        fam,
        HARD,
        [[-0.3], [0.4]],
        [16],
        5,
        sampler_settings={"burn_in_sweeps": 10},
        seed=2,
    )
    assert [r.beta_true for r in rows] == [(-0.3,), (0.4,)]


def test_csv_output_shape():
    fam = GraphFamily("cycle", {})
    rows = consistency_experiment(
        fam, HARD, [0.1], [12], 3, sampler_settings={"burn_in_sweeps": 5}, seed=3
    )
    text = rows_to_csv(rows, meta={"seed": 3})
    lines = text.strip().split("\n")
    assert lines[0].startswith("# meta: ")
    assert lines[1] == (
        "n,graph_kind,h_name,beta_true,replicate_count,degenerate_count,"
        "nonconverged_count,rank_deficient_count,median_scaled_error,q90_scaled_error,seed"
    )
    assert lines[2].startswith("12,cycle,h,0.1,3,")


def test_csv_quotes_a_comma_in_a_field():
    row = experiments.ConsistencyRow(
        n=12, graph_kind="cycle", h_name='a,b "c"', beta_true=(0.2, -0.1), replicate_count=2,
        degenerate_count=0, nonconverged_count=0, rank_deficient_count=0,
        median_scaled_error=0.5, q90_scaled_error=float("nan"), seed=3,
    )
    header, fields = csv.reader(io.StringIO(rows_to_csv([row])))
    assert len(header) == len(fields) == 11
    assert fields == ["12", "cycle", 'a,b "c"', "0.2;-0.1", "2", "0", "0", "0", "0.5", "nan", "3"]


def test_consistency_keeps_untrustworthy_fits_out_of_the_quantiles(monkeypatch):
    # the second and third fits are reported as not converged and as rank
    # deficient; each is counted on its own and left out of the errors
    fam = GraphFamily("cycle", {})
    kwargs = dict(sampler_settings={"burn_in_sweeps": 20}, seed=6)
    (row,) = consistency_experiment(fam, COL3, [0.1, -0.1], [200], 6, **kwargs)
    assert (row.degenerate_count, row.nonconverged_count, row.rank_deficient_count) == (0, 0, 0)
    fit, calls = experiments.mpl_fit, []

    def marked_fit(*args, **kw):
        report = fit(*args, **kw)
        calls.append(report)
        if len(calls) == 2:
            report = dataclasses.replace(report, converged=False)
        if len(calls) == 3:
            report = dataclasses.replace(report, rank_deficient=True)
        return report

    monkeypatch.setattr(experiments, "mpl_fit", marked_fit)
    (row,) = consistency_experiment(fam, COL3, [0.1, -0.1], [200], 6, **kwargs)
    assert (row.degenerate_count, row.nonconverged_count, row.rank_deficient_count) == (0, 1, 1)
    kept = [r for i, r in enumerate(calls) if i not in (1, 2)]
    err = [math.sqrt(200) * float(np.linalg.norm(r.beta_hat - [0.1, -0.1])) for r in kept]
    assert row.median_scaled_error == float(np.median(err))
    assert row.q90_scaled_error == float(np.quantile(err, 0.9))


def test_gradient_concentration_forced_model_zero():
    fam = ModelFamily(GraphFamily("complete", {}), COL3, (0.0, 0.0), h_name="coloring")
    out = gradient_concentration(fam, [3], 20, seed=4, sampler_settings={"burn_in_sweeps": 5})
    assert out[3] == 0.0


def test_zero_replicates_sample_nothing():
    fam = GraphFamily("cycle", {})
    settings = {"burn_in_sweeps": 5}
    out = gradient_concentration(ModelFamily(fam, HARD, (0.2,)), [12], 0, sampler_settings=settings)
    assert out == {12: 0.0}
    (row,) = consistency_experiment(fam, HARD, [0.2], [12], 0, sampler_settings=settings)
    assert (row.replicate_count, row.degenerate_count) == (0, 0)
    assert math.isnan(row.median_scaled_error)


def test_gradient_concentration_matches_enumeration_at_n2():
    beta = 0.3
    fam = ModelFamily(GraphFamily("complete", {}), HARD, (beta,), h_name="hardcore")
    replicates = 4000
    out = gradient_concentration(
        fam, [2], replicates, seed=9, sampler_settings={"burn_in_sweeps": 60}
    )
    g = generate("complete", {"n": 2})
    summary = enumerate_exact(Model(g, HARD, [beta]))
    exact = sum(
        p * 2 * pl_gradient(np.array(st), g, HARD, [beta])[0] ** 2
        for st, p in summary.state_probabilities.items()
    )
    assert out[2] == pytest.approx(exact, abs=0.05)


def test_gradient_concentration_calibration_exact_small_cycles():
    # exact values of n * E[||L(beta)||^2] for the cycle family stay far
    # below the 2.0 acceptance constant
    for beta in (-0.5, 0.0, 0.7):
        for n in (8, 10, 12):
            g = generate("cycle", {"n": n})
            summary = enumerate_exact(Model(g, HARD, [beta]))
            exact = sum(
                p * n * pl_gradient(np.array(st), g, HARD, [beta])[0] ** 2
                for st, p in summary.state_probabilities.items()
            )
            assert exact < 0.25
