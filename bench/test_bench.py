"""Tests of the benchmark itself: oracles against brute force, checks against
corrupted outputs, and the span derivation.

Run from the repository root with ``python3 -m pytest bench -q``.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles as orc
import workloads as wl
from spans import Tracer

H_SPECS = [
    ("hardcore", None),
    ("widom_rowlinson", None),
    ("multistate_hardcore", 2),
    ("proper_coloring", 3),
    ("counterexample_h", None),
]
LATTICES = [orc.Lattice("cycle", n) for n in (3, 4, 5, 8)] + [
    orc.Lattice("path", n) for n in (1, 2, 5, 8)
] + [orc.Lattice("grid3", rows) for rows in (1, 2)]


def brute_force(lat, allow, beta):
    """(count, log Z, E[counts]) by listing every coloring."""
    eu, ev = lat.edges()
    q = allow.shape[0]
    b_full = np.concatenate([[0.0], beta])
    count, weights, totals = 0, [], []
    for cfg in itertools.product(range(q), repeat=lat.n):
        if all(allow[cfg[u], cfg[v]] for u, v in zip(eu, ev)):
            count += 1
            c = np.bincount(cfg, minlength=q)
            weights.append(c @ b_full)
            totals.append(c)
    lw = np.array(weights)
    top = lw.max()
    p = np.exp(lw - top)
    z = p.sum()
    return count, float(top + np.log(z)), (p / z) @ np.array(totals)


@pytest.mark.parametrize("h_name,q", H_SPECS)
def test_transfer_matrix_matches_brute_force(h_name, q):
    allow = orc.allow_matrix(h_name, q)
    rng = np.random.default_rng(7)
    for lat in LATTICES:
        if allow.shape[0] ** lat.n > 70_000:
            continue
        beta = rng.uniform(-1, 1, allow.shape[0] - 1)
        count, log_z, expected = brute_force(lat, allow, beta)
        assert orc.count_states(lat, allow) == count, lat
        law = orc.exact_law(lat, allow, beta)
        assert law.log_partition == pytest.approx(log_z, abs=1e-12), lat
        np.testing.assert_allclose(law.expected_counts, expected, atol=1e-12)
        beta_b = rng.uniform(-1, 1, allow.shape[0] - 1)
        _, log_z_b, _ = brute_force(lat, allow, beta_b)
        kl = log_z_b - log_z - (beta_b - beta) @ expected[1:]
        assert orc.exact_kl(lat, allow, beta, beta_b) == pytest.approx(kl, abs=1e-12)


def test_long_cycle_law_is_scaled():
    allow = orc.allow_matrix("proper_coloring", 3)
    law = orc.exact_law(orc.Lattice("cycle", 1000), allow, [0.3, -0.3])
    assert np.isfinite(law.log_partition)
    assert law.expected_counts.sum() == pytest.approx(1000)
    # proper 3-colorings of an even cycle: Z = 2^n + 2 at beta = 0
    zero = orc.exact_law(orc.Lattice("cycle", 1000), allow, [0.0, 0.0])
    assert zero.log_partition == pytest.approx(1000 * math.log(2), rel=1e-14)


def random_graph(rng, n, p=0.4):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def distances(n, eu, ev):
    d = np.full((n, n), 10**6)
    np.fill_diagonal(d, 0)
    d[eu, ev] = d[ev, eu] = 1
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def test_validity_closed_form_and_degree_stats_match_brute_force():
    rng = np.random.default_rng(3)
    hard = orc.allow_matrix("hardcore")
    for trial in range(40):
        n = int(rng.integers(1, 9))
        eu, ev = random_graph(rng, n)
        d = distances(n, eu, ev)
        stats = orc.degree_summary(n, eu, ev)
        deg = (d == 1).sum(axis=1)
        assert stats.avg_degree == Fraction(int(deg.sum()), n)
        assert stats.avg_two_neighborhood == Fraction(int(((d >= 1) & (d <= 2)).sum()), n)
        assert stats.max_degree == int(deg.max())
        assert stats.isolated_count == int((deg == 0).sum())
        for subset in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(min(n, 3) + 1)
        ):
            expect = all(d[a, b] >= 3 for a, b in itertools.combinations(subset, 2))
            assert orc.is_neighborhood_disjoint(subset, n, eu, ev) == expect
        for cfg in itertools.product(range(2), repeat=n):
            colors = np.array(cfg)
            valid = all(not (cfg[u] and cfg[v]) for u, v in zip(eu, ev))
            assert bool(orc.valid_rows(colors, eu, ev, hard)[0]) == valid
            if not valid:
                continue
            c = sum(cfg)
            u = sum(1 for v in range(n) if cfg[v] == 0 and all(cfg[w] == 0 for w in range(n) if d[v, w] == 1))
            if c and u:
                assert orc.hardcore_closed_form(colors, n, eu, ev) == pytest.approx(math.log(c / u), abs=1e-15)


def pl_by_enumeration(colors, n, eu, ev, allow, beta):
    """Log pseudo-likelihood and gradient from per-vertex color loops."""
    q = allow.shape[0]
    b_full = np.concatenate([[0.0], beta])
    nbrs = [[v for u, v in zip(eu, ev) if u == x] + [u for u, v in zip(eu, ev) if v == x] for x in range(n)]
    value, grad = 0.0, np.zeros(q - 1)
    for x in range(n):
        ok = [s for s in range(q) if all(allow[s, colors[y]] for y in nbrs[x])]
        w = np.array([math.exp(b_full[s]) for s in ok])
        value += b_full[colors[x]] - math.log(w.sum())
        for s, p in zip(ok, w / w.sum()):
            if s:
                grad[s - 1] -= p
        if colors[x]:
            grad[colors[x] - 1] += 1
    return value / n, grad / n


def test_newton_fit_is_the_pseudo_likelihood_maximizer():
    rng = np.random.default_rng(5)
    allow = orc.allow_matrix("proper_coloring", 3)
    lat = orc.Lattice("cycle", 8)
    eu, ev = lat.edges()
    states = [np.array(c) for c in itertools.product(range(3), repeat=8)
              if all(c[u] != c[v] for u, v in zip(eu, ev))]
    fitted = 0
    for colors in states:
        try:
            fit = orc.newton_mpl(colors, 8, eu, ev, allow)
        except ValueError:
            continue  # degenerate: no finite maximizer
        value, grad = pl_by_enumeration(colors, 8, eu, ev, allow, fit.beta)
        assert np.abs(grad).max() <= 1e-12
        for _ in range(5):
            other = fit.beta + rng.normal(0, 0.3, 2)
            assert pl_by_enumeration(colors, 8, eu, ev, allow, other)[0] <= value + 1e-12
        assert fit.lambda_min > 0
        fitted += 1
    assert fitted > 10


def test_newton_fit_rejects_degenerate_sample():
    allow = orc.allow_matrix("hardcore")
    eu, ev = orc.Lattice("path", 4).edges()
    with pytest.raises(ValueError):
        orc.newton_mpl(np.zeros(4, dtype=np.int64), 4, eu, ev, allow)


# ---------------------------------------------------------------------------
# Each workload check passes on real output and fails on a corrupted one
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("cli"))
    cell = wl.CliEstimate(np.random.default_rng(0), work)
    cell.N, cell.BURNIN = 400, 20
    cell.setup()
    op = next(cell.round())
    out = op.run()
    cell.finish()
    return cell, out


def test_cli_check_passes_on_real_output(cli_run):
    cell, out = cli_run
    wl.check_cli_outputs(out, cell.reference(), float(cell.beta), cell.SCALED_ERROR_BOUND)


def corrupt_cli(out, part, eu, ev):
    bad = {key: dict(value) for key, value in out.items()}
    if part == "flip":
        cfg = list(out["cfg"]["configuration"])
        occupied = cfg.index(1)
        cfg[occupied] = 0  # a now-empty site with a free neighborhood changes c and u
        bad["cfg"]["configuration"] = cfg
    elif part == "color":
        cfg = list(out["cfg"]["configuration"])
        cfg[0] = 2  # not a hardcore color
        bad["cfg"]["configuration"] = cfg
    elif part == "beta":
        bad["est"]["beta_hat"] = [out["est"]["beta_hat"][0] + 1e-9]
    elif part == "degree":
        bad["diag"]["degree_stats"] = dict(out["diag"]["degree_stats"], avg_two_neighborhood="9")
    elif part == "subset":
        nd = dict(out["diag"]["neighborhood_disjoint"])
        first = nd["subset"][0]
        nd["subset"] = sorted(set(nd["subset"]) | {int(ev[eu == first][0]) if (eu == first).any()
                                                   else int(eu[ev == first][0])})
        nd["size"] = len(nd["subset"])
        bad["diag"]["neighborhood_disjoint"] = nd
    return bad


@pytest.mark.parametrize("part", ["flip", "color", "beta", "degree", "subset"])
def test_cli_check_fails_on_corrupted_output(cli_run, part):
    cell, out = cli_run
    _, eu, ev, _ = cell.reference()
    with pytest.raises(wl.CheckError):
        wl.check_cli_outputs(corrupt_cli(out, part, eu, ev), cell.reference(), float(cell.beta),
                             cell.SCALED_ERROR_BOUND)


def test_cli_check_flags_an_edge_violation(cli_run):
    cell, out = cli_run
    n, eu, ev, _ = cell.reference()
    cfg = list(out["cfg"]["configuration"])
    u = next(v for v in range(n) if cfg[v] == 1)
    w = int(ev[eu == u][0]) if (eu == u).any() else int(eu[ev == u][0])
    cfg[w] = 1
    bad = dict(out, cfg={"configuration": cfg})
    with pytest.raises(wl.CheckError, match="violates an edge"):
        wl.check_cli_outputs(bad, cell.reference(), float(cell.beta), cell.SCALED_ERROR_BOUND)


@pytest.fixture(scope="module")
def consistency_run():
    cell = wl.ConsistencyCell(np.random.default_rng(0), "")
    cell.N, cell.REPLICATES, cell.BURN_IN = 60, 32, 40
    cell.lattice = orc.Lattice("cycle", 60)
    cell.setup()
    out = next(cell.round()).run()
    cell.finish()
    return cell, out


def check_consistency(cell, out):
    wl.check_consistency_outputs(out, cell.betas, cell.lattice, cell.allow, cell.law,
                                 cell.REPLICATES, cell.Z_BOUND)


def test_consistency_check_passes_on_real_output(consistency_run):
    check_consistency(*consistency_run)


def test_consistency_check_fails_on_flipped_color(consistency_run):
    cell, (rows, samples, fits) = consistency_run
    bad = {k: v.copy() for k, v in samples.items()}
    block = bad[(cell.N, 0)]
    block[3, 5] = block[3, 6]  # equal colors on an edge
    with pytest.raises(wl.CheckError, match="violates an edge"):
        check_consistency(cell, (rows, bad, fits))


def test_consistency_check_fails_on_shifted_beta_hat(consistency_run):
    cell, (rows, samples, fits) = consistency_run
    bad_fits = list(fits)
    first = bad_fits[7]
    bad_fits[7] = type(first)(**{**first.__dict__, "beta_hat": first.beta_hat + 1e-4})
    with pytest.raises(wl.CheckError, match="Newton fit"):
        check_consistency(cell, (rows, samples, bad_fits))


def test_consistency_check_fails_on_shifted_median(consistency_run):
    cell, (rows, samples, fits) = consistency_run
    row = rows[1]
    bad_rows = [rows[0], type(row)(**{**row.__dict__, "median_scaled_error": row.median_scaled_error + 1e-3})]
    with pytest.raises(wl.CheckError, match="median"):
        check_consistency(cell, (bad_rows, samples, fits))


@pytest.fixture(scope="module")
def exact_run():
    oracle = wl.ExactOracle(np.random.default_rng(0), "")
    oracle.setup()
    oracle.models = [m for m in oracle.models if m.lat.n <= 9]
    return [(op, op.run()) for op in oracle.round()]


def test_exact_checks_pass_on_real_output(exact_run):
    assert len(exact_run) >= 6
    for op, out in exact_run:
        op.check(out)


@pytest.mark.parametrize("field,delta", [("log_partition", 1e-6), ("states", 1), ("kl", 1e-6),
                                         ("balance", 1e-9), ("tv", 0.05)])
def test_exact_check_fails_on_perturbed_output(exact_run, field, delta):
    for op, out in exact_run:
        if field not in out:
            continue
        bad = dict(out, **{field: out[field] + delta})
        with pytest.raises(wl.CheckError):
            op.check(bad)
        return
    pytest.fail(f"no output carries {field}")


def test_exact_check_fails_on_perturbed_expected_counts(exact_run):
    op, out = exact_run[0]
    counts = out["expected_counts"].copy()
    counts[1] += 1e-6
    with pytest.raises(wl.CheckError, match="expected counts"):
        op.check(dict(out, expected_counts=counts))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_span_self_times_and_nesting():
    tracer = Tracer()
    tracer.spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["graphs.generate", 1.0, 4.0, 0, None],
        ["graphs.generate", 2.0, 3.0, 1, None],
        ["sampler.sample", 5.0, 9.0, 0, {"site_updates": 400}],
        ["model.require_valid", 5.0, 6.0, 3, None],
    ]
    own, calls, counts = tracer.totals()
    assert own["cli.main"] == pytest.approx(3.0)
    assert own["graphs.generate"] == pytest.approx(3.0)
    assert tracer.inclusive("graphs.generate") == pytest.approx(3.0)
    assert calls["graphs.generate"] == 2
    m = tracer.metrics(traced_op_s=1.0)
    assert m["sampler.engine_s"]["value"] == pytest.approx(3.0)
    assert m["sampler.ns_per_site_update"]["value"] == pytest.approx(3e9 / 400)
    assert m["cli.self_s"]["value"] == pytest.approx(3.0)
    assert m["cli.command_s"]["value"] == pytest.approx(10.0)


def test_tracer_wraps_names_imported_by_other_modules():
    from hcolor import cli, experiments, graphs

    original = graphs.generate
    tracer = Tracer().install()
    try:
        assert experiments.generate is graphs.generate is cli.generate
        assert graphs.generate is not original
        experiments.GraphFamily("cycle", {}).build(5, seed=0)
    finally:
        tracer.uninstall()
    assert graphs.generate is original and experiments.generate is original
    assert [s[0] for s in tracer.spans] == ["graphs.generate"]
