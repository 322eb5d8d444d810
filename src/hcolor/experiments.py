"""Repeated-sampling experiments, exact KL computations, and diagnostics.

Everything here is reproducible: a run is a pure function of (settings, seed).
Replicates are mutually independent and processed in fixed blocks of
``REPLICATE_BLOCK`` rows, so results do not depend on how many worker
processes execute the blocks.
"""
from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .graphs import Graph, connected_components, generate, induced_subgraph
from .model import ConstraintGraph, Model, is_hardcore, require_valid, unconstrained_counts
from .pseudolikelihood import mpl_fit, mpl_hardcore, pl_gradient
from .sampler import (
    DEFAULT_STATE_CAP,
    _color_counts,
    _enumerate_states,
    _log_partition,
    default_burn_in,
    find_valid_configuration,
    sample_many,
)

__all__ = [
    "GraphFamily",
    "ModelFamily",
    "ConsistencyRow",
    "KLResult",
    "RainbowCheck",
    "consistency_experiment",
    "gradient_concentration",
    "kl_exact",
    "rainbow_check",
    "rows_to_csv",
    "REPLICATE_BLOCK",
]

REPLICATE_BLOCK = 256


@dataclass(frozen=True)
class GraphFamily:
    """A graph kind plus its non-size parameters; size n is supplied per run."""

    kind: str
    params: dict | None = None

    def build(self, n: int, seed: int) -> Graph:
        params = dict(self.params or {})
        params["n"] = n
        return generate(self.kind, params, seed=seed)


@dataclass(frozen=True)
class ModelFamily:
    graph_family: GraphFamily
    h: ConstraintGraph
    beta: tuple[float, ...]
    h_name: str = "h"


@dataclass(frozen=True)
class ConsistencyRow:
    """Summary of one (n, true-parameter) cell of a consistency experiment.

    Scaled errors are sqrt(n) * ||beta_hat - beta||_2 over the replicates
    whose fit is trustworthy; medians and upper quantiles are reported instead
    of means so a single bad fit cannot wreck the summary. The other fits are
    counted instead, each in the first of these that applies: diverging
    (``degenerate_count``), stopped short of its gradient tolerance
    (``nonconverged_count``), or flat along some direction of the free
    activities, which the sample then does not determine
    (``rank_deficient_count``).
    """

    n: int
    graph_kind: str
    h_name: str
    beta_true: tuple[float, ...]
    replicate_count: int
    degenerate_count: int
    nonconverged_count: int
    rank_deficient_count: int
    median_scaled_error: float
    q90_scaled_error: float
    seed: int


@dataclass(frozen=True)
class KLResult:
    n_parameter: int
    theta: tuple[float, ...]
    theta_prime: tuple[float, ...]
    kl: float
    method: str


@dataclass(frozen=True)
class RainbowCheck:
    """Per-color allowed fractions and threshold grid.

    ``fractions[r]`` is the share of vertices where color r is allowed.
    ``satisfied[(r, eps)]`` (for nonzero colors r) says that share exceeds eps.
    """

    fractions: np.ndarray
    eps_grid: tuple[float, ...]
    satisfied: dict[tuple[int, float], bool]


# ---------------------------------------------------------------------------
# Batched replicate sampling
# ---------------------------------------------------------------------------


def _entropy(*parts: int) -> list[int]:
    # SeedSequence entropy must be nonnegative
    return [int(p) & 0xFFFFFFFF for p in parts]


def _graph_seed(seed: int, n: int) -> int:
    return int(np.random.SeedSequence(_entropy(seed, n, 7919)).generate_state(1)[0])


def _block_worker(args):
    model, burn, entropy, start, beta_rows = args
    return sample_many(
        model,
        beta_rows.shape[0],
        burn_in_sweeps=burn,
        seed=np.random.SeedSequence(_entropy(*entropy)),
        start=start,
        beta_rows=beta_rows,
    )


def _sample_replicate_rows(
    g: Graph,
    h: ConstraintGraph,
    beta_rows: np.ndarray,
    burn: int,
    seed: int,
    n_key: int,
    jobs: int = 1,
) -> np.ndarray:
    """Sample one configuration per row of ``beta_rows``, independently.

    The row blocks and their seed streams are fixed by REPLICATE_BLOCK, so
    output is identical for any ``jobs``.
    """
    total = beta_rows.shape[0]
    if total == 0:
        return np.empty((0, g.n), dtype=np.int64)
    model = Model(g, h, beta_rows[0])
    start = find_valid_configuration(g, h, seed=_graph_seed(seed, n_key))
    tasks = []
    for block, lo in enumerate(range(0, total, REPLICATE_BLOCK)):
        hi = min(lo + REPLICATE_BLOCK, total)
        tasks.append((model, burn, (seed, n_key, block), start, beta_rows[lo:hi]))
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_block_worker, tasks))
    else:
        parts = [_block_worker(t) for t in tasks]
    return np.concatenate(parts, axis=0)


def _resolve_burn_in(sampler_settings: dict | None, n: int) -> int:
    if sampler_settings and sampler_settings.get("burn_in_sweeps") is not None:
        return int(sampler_settings["burn_in_sweeps"])
    return default_burn_in(n)


# ---------------------------------------------------------------------------
# Consistency experiment
# ---------------------------------------------------------------------------


def _as_beta_list(beta_true) -> list[tuple[float, ...]]:
    arr = np.asarray(beta_true, dtype=np.float64)
    if arr.ndim == 1:
        return [tuple(float(x) for x in arr)]
    if arr.ndim == 2:
        return [tuple(float(x) for x in row) for row in arr]
    raise ParameterError("beta_true must be a vector or a list of vectors")


def consistency_experiment(
    graph_family: GraphFamily,
    h: ConstraintGraph,
    beta_true,
    n_list: Sequence[int],
    replicates: int,
    sampler_settings: dict | None = None,
    seed: int = 0,
    h_name: str = "h",
    jobs: int = 1,
    return_samples: bool = False,
):
    """Sample-and-fit replication study across sizes.

    ``beta_true`` may be one parameter vector or a list of them; all vectors
    for a given n share one engine run (rows stay independent), which is much
    faster than separate runs. Returns one :class:`ConsistencyRow` per
    (n, beta) pair, ordered by n then by beta position. With
    ``return_samples=True`` also returns {(n, beta_index): (replicates, n)
    sample array} for downstream diagnostics.
    """
    if replicates < 0:
        raise ParameterError(f"replicates must be non-negative, got {replicates}")
    beta_list = _as_beta_list(beta_true)
    hardcore = is_hardcore(h)
    rows: list[ConsistencyRow] = []
    samples: dict[tuple[int, int], np.ndarray] = {}
    for n in n_list:
        g = graph_family.build(n, seed=_graph_seed(seed, n))
        burn = _resolve_burn_in(sampler_settings, g.n)
        beta_rows = np.repeat(np.asarray(beta_list, dtype=np.float64), replicates, axis=0)
        draws = _sample_replicate_rows(g, h, beta_rows, burn, seed, n, jobs=jobs)
        for b_idx, beta in enumerate(beta_list):
            block = draws[b_idx * replicates : (b_idx + 1) * replicates]
            if return_samples:
                samples[(n, b_idx)] = block
            target = np.asarray(beta)
            errors = []
            degenerate = nonconverged = rank_deficient = 0
            for cfg in block:
                report = mpl_hardcore(cfg, g) if hardcore else mpl_fit(cfg, g, h)
                if report.is_degenerate:
                    degenerate += 1
                elif not report.converged:
                    nonconverged += 1
                elif report.rank_deficient:
                    rank_deficient += 1
                else:
                    errors.append(
                        float(np.sqrt(g.n) * np.linalg.norm(report.beta_hat - target))
                    )
            err = np.asarray(errors)
            rows.append(
                ConsistencyRow(
                    n=n,
                    graph_kind=graph_family.kind,
                    h_name=h_name,
                    beta_true=beta,
                    replicate_count=replicates,
                    degenerate_count=degenerate,
                    nonconverged_count=nonconverged,
                    rank_deficient_count=rank_deficient,
                    median_scaled_error=float(np.median(err)) if err.size else float("nan"),
                    q90_scaled_error=float(np.quantile(err, 0.9)) if err.size else float("nan"),
                    seed=seed,
                )
            )
    if return_samples:
        return rows, samples
    return rows


def rows_to_csv(rows: Sequence[ConsistencyRow], meta: dict | None = None) -> str:
    """Fixed-header CSV; beta components are ';'-joined inside one field, and
    a field holding a comma or a quote (an ``h_name``, say) is CSV-quoted."""
    buf = io.StringIO()
    if meta is not None:
        buf.write("# meta: " + json.dumps(meta, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(field.name for field in fields(ConsistencyRow))
    for r in rows:
        writer.writerow(
            [r.n, r.graph_kind, r.h_name, ";".join(repr(b) for b in r.beta_true),
             r.replicate_count, r.degenerate_count, r.nonconverged_count,
             r.rank_deficient_count, repr(r.median_scaled_error),
             repr(r.q90_scaled_error), r.seed]
        )
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Gradient concentration
# ---------------------------------------------------------------------------


def gradient_concentration(
    model_family: ModelFamily,
    n_list: Sequence[int],
    replicates: int,
    seed: int = 0,
    sampler_settings: dict | None = None,
    jobs: int = 1,
) -> dict[int, float]:
    """Per-n empirical mean of n * ||gradient at the true parameters||^2.

    The pseudo-likelihood gradient at the truth concentrates at rate 1/n on
    bounded-average-degree families, so the reported values should stay
    bounded as n grows.
    """
    if replicates < 0:
        raise ParameterError(f"replicates must be non-negative, got {replicates}")
    fam = model_family
    beta = np.asarray(fam.beta, dtype=np.float64)
    out: dict[int, float] = {}
    for n in n_list:
        g = fam.graph_family.build(n, seed=_graph_seed(seed, n))
        burn = _resolve_burn_in(sampler_settings, g.n)
        beta_rows = np.tile(beta, (replicates, 1))
        draws = _sample_replicate_rows(g, fam.h, beta_rows, burn, seed, n, jobs=jobs)
        vals = [
            g.n * float(np.sum(pl_gradient(cfg, g, fam.h, beta) ** 2)) for cfg in draws
        ]
        out[n] = float(np.mean(vals)) if vals else 0.0
    return out


# ---------------------------------------------------------------------------
# Exact KL divergence
# ---------------------------------------------------------------------------


def kl_exact(
    g: Graph,
    h: ConstraintGraph,
    beta_a,
    beta_b,
    state_cap: int = DEFAULT_STATE_CAP,
    method: str = "brute_force",
) -> KLResult:
    """Exact KL divergence D(P_a || P_b) between two activity settings.

    Uses the exponential-family identity D = F(b) - F(a) - (b - a) . E_a[counts]
    with the log-partition F computed by exhaustive enumeration. The
    ``component_factorized`` method enumerates each connected component
    separately and sums the per-component divergences, valid because both
    measures factorize over components.
    """
    a = np.asarray(beta_a, dtype=np.float64).reshape(-1)
    b = np.asarray(beta_b, dtype=np.float64).reshape(-1)
    if a.shape != (h.q - 1,) or b.shape != (h.q - 1,):
        raise ParameterError("activity vectors must have length q-1")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ParameterError("activity vectors must be finite")
    if method == "brute_force":
        parts = [g]
    elif method == "component_factorized":
        parts = [induced_subgraph(g, comp) for comp in connected_components(g)]
    else:
        raise ParameterError(f"unknown KL method '{method}'")
    a_full, b_full = np.concatenate([[0.0], a]), np.concatenate([[0.0], b])
    kl = 0.0
    for part in parts:
        counts = _color_counts(_enumerate_states(part, h, state_cap), h.q)
        fa, pa = _log_partition(counts, a_full)
        fb, _ = _log_partition(counts, b_full)
        kl += fb - fa - float((b_full - a_full) @ (pa @ counts))
    return KLResult(
        n_parameter=g.n,
        theta=tuple(float(x) for x in a),
        theta_prime=tuple(float(x) for x in b),
        kl=float(kl),
        method=method,
    )


# ---------------------------------------------------------------------------
# Rainbow diagnostics
# ---------------------------------------------------------------------------


def rainbow_check(
    cfg,
    g: Graph,
    h: ConstraintGraph,
    eps_grid: tuple[float, ...] = (0.01, 0.02, 0.05, 0.1, 0.2),
) -> RainbowCheck:
    """Allowed-color fractions per color with an exceedance grid.

    A healthy estimation instance keeps the fraction for every nonzero color
    bounded away from 0; the grid records which thresholds each color clears.
    """
    colors = require_valid(cfg, g, h)
    fractions = unconstrained_counts(colors, g, h) / g.n
    satisfied = {
        (r, eps): bool(fractions[r] > eps)
        for r in range(1, h.q)
        for eps in eps_grid
    }
    return RainbowCheck(fractions=fractions, eps_grid=tuple(eps_grid), satisfied=satisfied)
