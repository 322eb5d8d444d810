"""Command-line interface.

Commands: gen-graph, sample, estimate, exact, experiment, diagnose. Every
output artifact embeds a ``meta`` object with the tool version, the fully
resolved configuration, and the seed, so re-running a command with the
embedded configuration reproduces the artifact byte-for-byte.

Exit codes: 0 success, 1 invalid input (a machine-readable error JSON is
printed), 2 infeasible or feasibility-unknown model, 3 enumeration cap
exceeded.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (
    EnumerationCapError,
    FeasibilityUnknownError,
    HColorError,
    InfeasibleModelError,
    ParameterError,
)
from .experiments import (
    GraphFamily,
    ModelFamily,
    consistency_experiment,
    gradient_concentration,
    kl_exact,
    rows_to_csv,
)
from .graphs import (
    degree_stats,
    generate,
    neighborhood_disjoint_size_bound,
    neighborhood_disjoint_subset,
    read_graph,
    write_graph,
)
from .model import (
    Model,
    is_hardcore,
    preset,
    read_configuration,
    read_constraint,
    require_valid,
    unconstrained_counts,
    write_configuration,
)
from .pseudolikelihood import (
    min_eigenvalue_neg_hessian,
    mpl_fit,
    mpl_hardcore,
    report_to_json,
)
from .sampler import DEFAULT_STATE_CAP, enumerate_exact, sample

_PRESET_NAMES = {
    "hardcore",
    "widom_rowlinson",
    "counterexample_h",
    "proper_coloring",
    "multistate_hardcore",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through the exit-code map
        raise ParameterError(message)


def _parse_h(spec: str):
    """Either a preset spec like 'hardcore' / 'proper_coloring:3', or a file path."""
    name, _, qpart = spec.partition(":")
    if name in _PRESET_NAMES:
        try:
            q = int(qpart) if qpart else None
        except ValueError as exc:
            raise ParameterError(f"could not parse the color count in '{spec}'") from exc
        return preset(name, q=q)
    return read_constraint(spec)


def _parse_beta(spec: str, q: int) -> np.ndarray:
    try:
        values = [float(x) for x in spec.split(",")] if spec else []
    except ValueError as exc:
        raise ParameterError(f"could not parse beta '{spec}'") from exc
    if len(values) != q - 1:
        raise ParameterError(f"beta needs q-1={q - 1} comma-separated values, got {len(values)}")
    return np.asarray(values)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: what ran, with which settings, from which seed.

    Every artifact embeds this (plus the tool version), so re-running the
    recorded command reproduces the artifact byte-for-byte. ``seed`` is None
    for deterministic commands that consume no randomness.
    """

    command: str
    settings: dict
    seed: int | None = None

    def meta(self) -> dict:
        return {
            "tool": "hcolor",
            "version": __version__,
            "command": self.command,
            "seed": self.seed,
            "config": self.settings,
        }


def _meta(command: str, config: dict, seed=None) -> dict:
    return RunConfig(command, config, seed).meta()


def _check_out(path: str) -> str:
    """Fail before any work if the output location cannot exist."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ParameterError(f"output directory does not exist: {parent}")
    return path


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_gen_graph(args) -> int:
    _check_out(args.out)
    params = json.loads(args.params)
    g = generate(args.kind, params, seed=args.seed)
    config = {"kind": args.kind, "params": params, "seed": args.seed, "out": args.out}
    write_graph(args.out, g, meta=_meta("gen-graph", config, seed=args.seed))
    return 0


def _cmd_sample(args) -> int:
    _check_out(args.out)
    g = read_graph(args.graph)
    h = _parse_h(args.h)
    beta = _parse_beta(args.beta, h.q)
    model = Model(g, h, beta)
    cfg = sample(model, burn_in_sweeps=args.burnin, seed=args.seed)
    config = {
        "graph": args.graph,
        "h": args.h,
        "beta": beta.tolist(),
        "burnin": args.burnin,
        "seed": args.seed,
        "out": args.out,
    }
    write_configuration(args.out, cfg, meta=_meta("sample", config, seed=args.seed))
    return 0


def _cmd_estimate(args) -> int:
    _check_out(args.out)
    g = read_graph(args.graph)
    h = _parse_h(args.h)
    cfg = read_configuration(args.config)
    require_valid(cfg, g, h)
    if is_hardcore(h):
        closed = mpl_hardcore(cfg, g)
        fitted = mpl_fit(cfg, g, h, tol=min(args.tol, 1e-9))
        if not closed.is_degenerate and not fitted.is_degenerate:
            gap = float(np.abs(closed.beta_hat - fitted.beta_hat).max())
            if gap > 1e-6:
                raise HColorError(
                    f"closed-form and optimizer estimates disagree by {gap:.3e}"
                )
        report = closed
    else:
        report = mpl_fit(cfg, g, h, tol=args.tol)
    config = {
        "graph": args.graph,
        "h": args.h,
        "config": args.config,
        "tol": args.tol,
        "out": args.out,
    }
    payload = json.loads(report_to_json(report))
    payload["meta"] = _meta("estimate", config, seed=None)
    _write_json(args.out, payload)
    return 0


def _cmd_exact(args) -> int:
    _check_out(args.out)
    g = read_graph(args.graph)
    h = _parse_h(args.h)
    beta = _parse_beta(args.beta, h.q)
    model = Model(g, h, beta)
    summary = enumerate_exact(model, state_cap=args.cap)
    config = {
        "graph": args.graph,
        "h": args.h,
        "beta": beta.tolist(),
        "cap": args.cap,
        "out": args.out,
    }
    payload = {
        "log_partition": summary.log_partition,
        "expected_counts": [float(x) for x in summary.expected_counts],
        "expected_unconstrained": [float(x) for x in summary.expected_unconstrained],
        "meta": _meta("exact", config, seed=None),
    }
    _write_json(args.out, payload)
    return 0


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_vector(x) -> bool:
    """A JSON list of numbers."""
    return isinstance(x, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in x
    )


def _check_experiment_settings(settings: dict, kind) -> None:
    """Reject wrongly typed settings before an experiment starts any work.
    An unknown kind is left to ``_cmd_experiment`` to report."""
    if kind not in ("consistency", "gradient_concentration", "kl"):
        return
    graph = settings.get("graph")
    if not (
        isinstance(graph, dict)
        and isinstance(graph.get("kind"), str)
        and isinstance(graph.get("params", {}), dict)
    ):
        raise ParameterError('"graph" must be an object with a string "kind" and object "params"')
    if not isinstance(settings.get("h"), str):
        raise ParameterError('"h" must be a preset spec or a constraint-file path')
    if kind == "kl":
        if not (_is_vector(settings.get("beta_a")) and _is_vector(settings.get("beta_b"))):
            raise ParameterError('"beta_a" and "beta_b" must be lists of numbers')
        if not _is_int(settings.get("state_cap", DEFAULT_STATE_CAP)):
            raise ParameterError('"state_cap" must be an integer')
        return
    replicates = settings.get("replicates")
    if not _is_int(replicates) or replicates < 0:
        raise ParameterError(f'"replicates" must be a non-negative integer, got {replicates!r}')
    n_list = settings.get("n_list")
    if not (isinstance(n_list, list) and all(_is_int(n) for n in n_list)):
        raise ParameterError(f'"n_list" must be a list of integers, got {n_list!r}')
    burn = settings.get("burn_in_sweeps")
    if burn is not None and (not _is_int(burn) or burn < 0):
        raise ParameterError(f'"burn_in_sweeps" must be null or an integer >= 0, got {burn!r}')
    beta = settings.get("beta")
    nested = kind == "consistency" and isinstance(beta, list) and beta and isinstance(beta[0], list)
    rows = beta if nested else [beta]
    if not (all(_is_vector(row) for row in rows) and len({len(row) for row in rows}) == 1):
        raise ParameterError(f'"beta" must be a number list or equal-length number lists, got {beta!r}')


def _cmd_experiment(args) -> int:
    _check_out(args.out)
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be at least 1, got {args.jobs}")
    with open(args.settings) as fh:
        settings = json.load(fh)
    if not isinstance(settings, dict):
        raise ParameterError("an experiment settings file must hold a JSON object")
    kind = settings.get("experiment")
    _check_experiment_settings(settings, kind)
    config = {"settings": args.settings, "resolved": settings, "seed": args.seed,
              "jobs": args.jobs, "out": args.out}
    meta = _meta("experiment", config, seed=args.seed)
    if kind == "consistency":
        family = GraphFamily(settings["graph"]["kind"], settings["graph"].get("params", {}))
        h = _parse_h(settings["h"])
        rows = consistency_experiment(
            family,
            h,
            settings["beta"],
            settings["n_list"],
            settings["replicates"],
            sampler_settings={"burn_in_sweeps": settings.get("burn_in_sweeps")},
            seed=args.seed,
            h_name=settings.get("h_name", settings["h"]),
            jobs=args.jobs,
        )
        with open(args.out, "w") as fh:
            fh.write(rows_to_csv(rows, meta=meta))
        return 0
    if kind == "gradient_concentration":
        family = GraphFamily(settings["graph"]["kind"], settings["graph"].get("params", {}))
        h = _parse_h(settings["h"])
        mf = ModelFamily(family, h, tuple(settings["beta"]), h_name=settings.get("h_name", settings["h"]))
        result = gradient_concentration(
            mf,
            settings["n_list"],
            settings["replicates"],
            seed=args.seed,
            sampler_settings={"burn_in_sweeps": settings.get("burn_in_sweeps")},
            jobs=args.jobs,
        )
        with open(args.out, "w") as fh:
            fh.write("# meta: " + json.dumps(meta, sort_keys=True) + "\n")
            fh.write("n,mean_scaled_grad_sq,replicates,seed\n")
            for n in settings["n_list"]:
                fh.write(f"{n},{result[n]!r},{settings['replicates']},{args.seed}\n")
        return 0
    if kind == "kl":
        gspec = settings["graph"]
        g = generate(gspec["kind"], gspec.get("params", {}), seed=args.seed)
        h = _parse_h(settings["h"])
        result = kl_exact(
            g,
            h,
            settings["beta_a"],
            settings["beta_b"],
            state_cap=settings.get("state_cap", DEFAULT_STATE_CAP),
            method=settings.get("method", "brute_force"),
        )
        payload = {
            "n_parameter": result.n_parameter,
            "theta": list(result.theta),
            "theta_prime": list(result.theta_prime),
            "kl": result.kl,
            "method": result.method,
            "meta": meta,
        }
        _write_json(args.out, payload)
        return 0
    raise ParameterError(f"unknown experiment kind {kind!r}")


def _cmd_diagnose(args) -> int:
    _check_out(args.out)
    g = read_graph(args.graph)
    h = _parse_h(args.h)
    cfg = read_configuration(args.config)
    colors = require_valid(cfg, g, h)
    beta = _parse_beta(args.beta, h.q)
    stats = degree_stats(g)
    fractions = unconstrained_counts(colors, g, h) / g.n
    lam = min_eigenvalue_neg_hessian(colors, g, h, beta)
    subset = neighborhood_disjoint_subset(g, range(g.n), seed=args.seed)
    bound = neighborhood_disjoint_size_bound(g)
    config = {
        "graph": args.graph,
        "h": args.h,
        "config": args.config,
        "beta": beta.tolist(),
        "seed": args.seed,
        "out": args.out,
    }
    payload = {
        "degree_stats": {
            "avg_degree": str(stats.avg_degree),
            "avg_degree_float": float(stats.avg_degree),
            "avg_two_neighborhood": str(stats.avg_two_neighborhood),
            "avg_two_neighborhood_float": float(stats.avg_two_neighborhood),
            "max_degree": stats.max_degree,
            "isolated_count": stats.isolated_count,
        },
        "rainbow_fractions": [float(x) for x in fractions],
        "lambda_min": lam,
        "neighborhood_disjoint": {
            "subset": [int(v) for v in subset],
            "size": len(subset),
            "size_bound": str(bound),
            "size_bound_float": float(bound),
            "meets_bound": len(subset) >= bound,
        },
        "meta": _meta("diagnose", config, seed=args.seed),
    }
    _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hcolor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="generate a graph file")
    p.add_argument("--kind", required=True)
    p.add_argument("--params", default="{}", help="JSON object of generator parameters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("sample", help="draw one configuration by heat-bath dynamics")
    p.add_argument("--graph", required=True)
    p.add_argument("--h", required=True, help="preset spec or constraint-graph file")
    p.add_argument("--beta", required=True, help="comma-separated activities for colors 1..q-1")
    p.add_argument("--burnin", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="fit activities from one configuration")
    p.add_argument("--graph", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--config", required=True, help="configuration JSON file")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("exact", help="exact enumeration summary of a small model")
    p.add_argument("--graph", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("experiment", help="run a settings-file experiment")
    p.add_argument("--settings", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("diagnose", help="degree, rainbow, curvature, and subset diagnostics")
    p.add_argument("--graph", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_diagnose)

    return parser


_EXIT_INVALID = 1
_EXIT_INFEASIBLE = 2
_EXIT_CAP = 3


def _error_json(exc: Exception) -> str:
    return json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except EnumerationCapError as exc:
        print(_error_json(exc))
        return _EXIT_CAP
    except (InfeasibleModelError, FeasibilityUnknownError) as exc:
        print(_error_json(exc))
        return _EXIT_INFEASIBLE
    except (HColorError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(_error_json(exc))
        return _EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
