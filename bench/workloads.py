"""The three benchmark workloads: inputs from a seed, operations, checks.

A workload turns the benchmark's ``--seed`` into inputs in ``setup``; hcolor
sees only those inputs. ``round()`` yields the operations of one round; a run
repeats whole rounds. Each operation returns its outputs, and ``check`` tests
them against the reference computations in ``oracles`` (no hcolor code) or
against properties the method must have. A failed check raises ``CheckError``.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import oracles as orc
from hcolor import cli, experiments, graphs, model, pseudolikelihood, sampler


class CheckError(AssertionError):
    """An hcolor output disagrees with the reference computation."""


class OperationFailed(RuntimeError):
    """hcolor refused or failed one operation (nonzero exit code)."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def run_cli(argv: list[str]) -> None:
    """Run one hcolor command in-process; its stdout (error JSON) goes to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"hcolor {argv[0]} exited with {code}")


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises CheckError


# ---------------------------------------------------------------------------
# cli_estimate: sample -> estimate -> diagnose through cli.main
# ---------------------------------------------------------------------------


class CliEstimate:
    """Hardcore model on a random 3-regular graph, driven through the CLI."""

    N = 20_000
    BURNIN = 20
    BETA = "0.2"
    SCALED_ERROR_BOUND = 30.0  # sqrt(n)|beta_hat - beta|; measured spread is sd 3-5

    def __init__(self, rng: np.random.Generator, workdir: str):
        self.rng = rng
        self.graph = os.path.join(workdir, "graph.json")
        self.cfg = os.path.join(workdir, "cfg.json")
        self.est = os.path.join(workdir, "estimate.json")
        self.diag = os.path.join(workdir, "diagnose.json")
        self.beta = self.BETA
        self.first_sample: tuple[list[str], bytes] | None = None
        self._ref = None

    def setup(self) -> None:
        graph_seed = int(self.rng.integers(2**31))
        params = json.dumps({"n": self.N, "d": 3})
        run_cli(["gen-graph", "--kind", "random_regular", "--params", params,
                 "--seed", str(graph_seed), "--out", self.graph])

    def round(self):
        chain_seed = str(int(self.rng.integers(2**31)))
        yield Operation(f"chain seed {chain_seed}", lambda: self._op(chain_seed), self._check)

    def _sample_argv(self, chain_seed: str) -> list[str]:
        return ["sample", "--graph", self.graph, "--h", "hardcore", "--beta", self.beta,
                "--burnin", str(self.BURNIN), "--seed", chain_seed, "--out", self.cfg]

    def _op(self, chain_seed: str):
        sample_argv = self._sample_argv(chain_seed)
        run_cli(sample_argv)
        run_cli(["estimate", "--graph", self.graph, "--h", "hardcore",
                 "--config", self.cfg, "--out", self.est])
        run_cli(["diagnose", "--graph", self.graph, "--h", "hardcore", "--config", self.cfg,
                 "--beta", self.beta, "--seed", chain_seed, "--out", self.diag])
        if self.first_sample is None:
            with open(self.cfg, "rb") as fh:
                self.first_sample = (sample_argv, fh.read())
        return {name: _load(path) for name, path in
                [("cfg", self.cfg), ("est", self.est), ("diag", self.diag)]}

    def reference(self):
        """Edges and degree statistics of the generated graph, read from its file."""
        if self._ref is None:
            n, eu, ev = orc.edges_from_payload(_load(self.graph))
            self._ref = (n, eu, ev, orc.degree_summary(n, eu, ev))
        return self._ref

    def _check(self, out) -> None:
        check_cli_outputs(out, self.reference(), float(self.beta), self.SCALED_ERROR_BOUND)

    def finish(self) -> None:
        """Re-run the first sample command; its artifact must repeat byte for byte."""
        if self.first_sample is None:
            return
        argv, first = self.first_sample
        run_cli(argv)
        with open(self.cfg, "rb") as fh:
            expect(fh.read() == first, "sample artifact differs on an identical re-run")


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_cli_outputs(out: dict, ref, beta: float, bound: float) -> None:
    n, eu, ev, stats = ref
    allow = orc.allow_matrix("hardcore")
    colors = np.asarray(out["cfg"]["configuration"], dtype=np.int64)
    expect(colors.shape == (n,), "configuration has the wrong length")
    expect(bool(orc.valid_rows(colors, eu, ev, allow)[0]), "sampled configuration violates an edge")

    beta_hat = out["est"]["beta_hat"][0]
    expect(isinstance(beta_hat, float), f"estimate is degenerate: {beta_hat!r}")
    closed = orc.hardcore_closed_form(colors, n, eu, ev)
    expect(abs(beta_hat - closed) <= 1e-12, f"beta_hat {beta_hat!r} != log(c/u) {closed!r}")
    scaled = math.sqrt(n) * abs(beta_hat - beta)
    expect(scaled <= bound, f"sqrt(n)|beta_hat - beta| = {scaled:.3f} exceeds {bound}")

    ds = out["diag"]["degree_stats"]
    expect(ds["avg_degree"] == str(stats.avg_degree), "diagnose avg_degree differs")
    expect(ds["avg_two_neighborhood"] == str(stats.avg_two_neighborhood),
           "diagnose avg_two_neighborhood differs")
    expect(ds["max_degree"] == stats.max_degree, "diagnose max_degree differs")
    expect(ds["isolated_count"] == stats.isolated_count, "diagnose isolated_count differs")
    nd = out["diag"]["neighborhood_disjoint"]
    subset = nd["subset"]
    bound_n = orc.disjoint_size_bound(n, stats.avg_two_neighborhood)
    expect(nd["size"] == len(subset), "diagnose subset size field differs from the subset")
    expect(orc.is_neighborhood_disjoint(subset, n, eu, ev), "diagnose subset is not neighborhood-disjoint")
    expect(Fraction(nd["size_bound"]) == bound_n, "diagnose size bound differs")
    expect(len(subset) >= bound_n, f"subset of {len(subset)} is below the bound {bound_n}")


# ---------------------------------------------------------------------------
# consistency_cell: one consistency-experiment cell for proper 3-coloring
# ---------------------------------------------------------------------------


class ConsistencyCell:
    """Two activity vectors, 128 replicates each, one 256-row engine block."""

    N = 1000
    REPLICATES = 128
    BURN_IN = 100
    Z_BOUND = 5.0  # |z| of mean color fractions; the largest of 24 measured was 3.0
    BETAS = np.array([[0.3, -0.3], [-0.2, 0.1]])

    def __init__(self, rng: np.random.Generator, workdir: str):
        self.rng = rng
        self.allow = orc.allow_matrix("proper_coloring", 3)
        self.lattice = orc.Lattice("cycle", self.N)
        self.fits: list = []
        self._laws: dict = {}

    def setup(self) -> None:
        self.betas = self.BETAS
        self.h = model.preset("proper_coloring", q=3)
        self.family = experiments.GraphFamily("cycle", {})
        # keep each replicate's report: the cell itself returns only summaries
        fit = experiments.mpl_fit

        def recorded_fit(*args, **kwargs):
            report = fit(*args, **kwargs)
            self.fits.append(report)
            return report

        experiments.mpl_fit = recorded_fit
        self._restore = lambda: setattr(experiments, "mpl_fit", fit)

    def round(self):
        seed = int(self.rng.integers(2**31))
        yield Operation(f"experiment seed {seed}", lambda: self._op(seed), self._check)

    def _op(self, seed: int):
        self.fits.clear()
        rows, samples = experiments.consistency_experiment(
            self.family, self.h, self.betas.tolist(), [self.N], self.REPLICATES,
            sampler_settings={"burn_in_sweeps": self.BURN_IN}, seed=seed,
            h_name="coloring3", jobs=1, return_samples=True,
        )
        return rows, samples, list(self.fits)

    def law(self, b_idx: int) -> orc.ExactLaw:
        if b_idx not in self._laws:
            self._laws[b_idx] = orc.exact_law(self.lattice, self.allow, self.betas[b_idx])
        return self._laws[b_idx]

    def _check(self, out) -> None:
        check_consistency_outputs(out, self.betas, self.lattice, self.allow, self.law,
                                  self.REPLICATES, self.Z_BOUND)

    def finish(self) -> None:
        self._restore()


def check_consistency_outputs(out, betas, lattice, allow, law, replicates, z_bound) -> None:
    rows, samples, fits = out
    n = lattice.n
    q = allow.shape[0]
    eu, ev = lattice.edges()
    tol = pseudolikelihood.DEFAULT_TOL
    expect(len(rows) == len(betas), "one row per activity vector expected")
    expect(len(fits) == len(betas) * replicates, f"{len(fits)} fits for {len(betas)} x {replicates} replicates")
    for b_idx, (row, beta) in enumerate(zip(rows, betas)):
        block = samples[(n, b_idx)]
        expect(block.shape == (replicates, n), "sample block has the wrong shape")
        expect(bool(orc.valid_rows(block, eu, ev, allow).all()), "a replicate violates an edge")
        expect(tuple(row.beta_true) == tuple(beta), "row carries the wrong activities")
        expect(row.replicate_count == replicates and row.degenerate_count == 0,
               f"unexpected replicate or degenerate count in row {b_idx}")

        counts = np.stack([(block == r).sum(axis=1) for r in range(q)], axis=1) / n
        mean, se = counts.mean(axis=0), counts.std(axis=0, ddof=1) / math.sqrt(replicates)
        z = (mean - law(b_idx).expected_counts / n) / se
        expect(bool(np.all(np.abs(z) <= z_bound)), f"color fractions off the exact law: z = {z}")

        errors = []
        reports = fits[b_idx * replicates : (b_idx + 1) * replicates]
        slack = 0.0
        for cfg, report in zip(block, reports):
            ref = orc.newton_mpl(cfg, n, eu, ev, allow)
            gap = float(np.abs(np.asarray(report.beta_hat) - ref.beta).max())
            # a gradient of sup-norm tol leaves an error of at most
            # sqrt(q-1) * tol / lambda_min in the sup-norm; allow twice that
            limit = 2 * math.sqrt(q - 1) * tol / ref.lambda_min + 1e-12
            expect(gap <= limit, f"beta_hat off the Newton fit by {gap:.3e} > {limit:.3e}")
            slack = max(slack, limit)
            errors.append(math.sqrt(n) * float(np.linalg.norm(ref.beta - beta)))
        err = np.asarray(errors)
        room = math.sqrt(n) * math.sqrt(q - 1) * slack + 1e-9
        for label, reported, recomputed in [
            ("median", row.median_scaled_error, float(np.median(err))),
            ("q90", row.q90_scaled_error, float(np.quantile(err, 0.9))),
        ]:
            expect(abs(reported - recomputed) <= room,
                   f"{label} scaled error {reported!r} != recomputed {recomputed!r}")


# ---------------------------------------------------------------------------
# exact_oracle: enumeration, KL, detailed balance, irreducibility, TV
# ---------------------------------------------------------------------------

# (constraint graph, q for the preset, lattice, run the TV check)
EXACT_MODELS = [
    ("hardcore", None, orc.Lattice("cycle", 16), False),
    ("hardcore", None, orc.Lattice("grid3", 5), False),
    ("widom_rowlinson", None, orc.Lattice("path", 9), False),
    ("widom_rowlinson", None, orc.Lattice("grid3", 3), False),
    ("multistate_hardcore", 2, orc.Lattice("cycle", 10), False),
    ("multistate_hardcore", 2, orc.Lattice("grid3", 3), False),
    ("proper_coloring", 3, orc.Lattice("cycle", 12), False),
    ("proper_coloring", 3, orc.Lattice("grid3", 4), False),
    ("counterexample_h", None, orc.Lattice("path", 10), False),
    ("counterexample_h", None, orc.Lattice("cycle", 10), False),
    # at most 7 states: the binomial error budget at TV_REPLICATES stays
    # below 0.01, half the TV threshold, for any activities
    ("hardcore", None, orc.Lattice("path", 3), True),
    ("hardcore", None, orc.Lattice("cycle", 4), True),
    ("widom_rowlinson", None, orc.Lattice("path", 2), True),
    ("multistate_hardcore", 2, orc.Lattice("path", 2), True),
]

TV_REPLICATES = 20_000
TV_SWEEPS = 100  # the TV models mix within a few sweeps
TV_THRESHOLD = 0.02
DB_THRESHOLD = 1e-10


def hcolor_graph(lat: orc.Lattice):
    if lat.kind == "grid3":
        return graphs.generate("grid", {"rows": lat.slices, "cols": 3})
    return graphs.generate(lat.kind, {"n": lat.n})


@dataclass
class ExactModel:
    h_name: str
    q: int | None
    lat: orc.Lattice
    tv: bool
    graph: object
    h: object
    allow: np.ndarray
    count: int | None = None  # transfer-matrix state count, computed at first check


class ExactOracle:
    """Every model of EXACT_MODELS once per round, with fresh activities."""

    BETA_RANGE = 0.5

    def __init__(self, rng: np.random.Generator, workdir: str):
        self.rng = rng

    def setup(self) -> None:
        self.models = []
        for h_name, q, lat, tv in EXACT_MODELS:
            g = hcolor_graph(lat)
            eu, ev = lat.edges()
            expect(g.edges() == list(zip(eu.tolist(), ev.tolist())),
                   f"hcolor {lat} graph differs from the reference edges")
            self.models.append(ExactModel(h_name, q, lat, tv, g, model.preset(h_name, q=q),
                                          orc.allow_matrix(h_name, q)))

    def round(self):
        for m in self.models:
            beta = np.round(self.rng.uniform(-self.BETA_RANGE, self.BETA_RANGE, m.h.q - 1), 6)
            beta_b = np.round(self.rng.uniform(-self.BETA_RANGE, self.BETA_RANGE, m.h.q - 1), 6)
            seed = int(self.rng.integers(2**31))
            yield Operation(
                f"{m.h_name} {m.lat.kind} {m.lat.slices}",
                lambda m=m, b=beta, bb=beta_b, s=seed: self._op(m, b, bb, s),
                lambda out, m=m, b=beta, bb=beta_b: self._check(m, b, bb, out),
            )

    def _op(self, m: ExactModel, beta, beta_b, seed):
        mod = model.Model(m.graph, m.h, beta)
        summary = sampler.enumerate_exact(mod)
        out = {
            "states": len(summary.state_probabilities),
            "log_partition": summary.log_partition,
            "expected_counts": np.asarray(summary.expected_counts),
            "kl": experiments.kl_exact(m.graph, m.h, beta, beta_b).kl,
            "balance": sampler.max_detailed_balance_violation(mod, summary),
            "irreducible": sampler.is_glauber_irreducible(mod, summary),
        }
        if m.tv:
            out["tv"] = sampler.tv_distance_empirical(
                mod, sweeps=TV_SWEEPS, replicates=TV_REPLICATES, seed=seed
            )
        return out

    def _check(self, m: ExactModel, beta, beta_b, out) -> None:
        if m.count is None:
            m.count = orc.count_states(m.lat, m.allow)
        check_exact_outputs(out, m.lat, m.allow, beta, beta_b, m.count)

    def finish(self) -> None:
        pass


def check_exact_outputs(out, lat, allow, beta, beta_b, count: int) -> None:
    law = orc.exact_law(lat, allow, beta)
    expect(out["states"] == count, f"{out['states']} states, transfer matrix gives {count}")
    expect(abs(out["log_partition"] - law.log_partition) <= 1e-9 * max(1.0, abs(law.log_partition)),
           f"log Z {out['log_partition']!r} != {law.log_partition!r}")
    gap = float(np.abs(out["expected_counts"] - law.expected_counts).max())
    expect(gap <= 1e-9 * lat.n, f"expected counts off by {gap:.3e}")
    kl = orc.exact_kl(lat, allow, beta, beta_b)
    expect(abs(out["kl"] - kl) <= 1e-9 * max(1.0, abs(kl)), f"KL {out['kl']!r} != {kl!r}")
    expect(out["balance"] <= DB_THRESHOLD, f"detailed balance violated by {out['balance']:.3e}")
    if orc.has_universal_loop_color(allow):
        expect(out["irreducible"] is True, "single-site chain reported reducible")
    if "tv" in out:
        expect(out["tv"] < TV_THRESHOLD, f"TV {out['tv']:.4f} >= {TV_THRESHOLD}")


WORKLOADS = {
    "cli_estimate": CliEstimate,
    "consistency_cell": ConsistencyCell,
    "exact_oracle": ExactOracle,
}
