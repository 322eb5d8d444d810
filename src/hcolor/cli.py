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
import dataclasses
import json
import os
import sys

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
    PRESET_NAMES,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors through the exit-code map
        raise ParameterError(message)


def _parse_h(spec: str):
    """Either a preset spec like 'hardcore' / 'proper_coloring:3', or a file path."""
    name, _, qpart = spec.partition(":")
    if name in PRESET_NAMES:
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


def _meta(args, **parsed) -> dict:
    """What ran, with which settings, from which seed. ``config`` holds every
    argument under its flag's name, with the values in ``parsed`` (``--beta``
    as a list, ``--params`` as an object, the resolved experiment settings) in
    place of their text, so re-running the recorded command reproduces the
    artifact byte-for-byte. ``seed`` is None for commands without ``--seed``,
    which consume no randomness."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    return {
        "tool": "hcolor",
        "version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "config": {**config, **parsed},
    }


def _check_out(path: str) -> None:
    """Fail before any work if the output file cannot be written."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ParameterError(f"output directory does not exist: {parent}")
    if os.path.isdir(path):
        raise ParameterError(f"output path is a directory: {path}")


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_gen_graph(args) -> None:
    params = json.loads(args.params)
    g = generate(args.kind, params, seed=args.seed)
    write_graph(args.out, g, meta=_meta(args, params=params))


def _cmd_sample(args) -> None:
    g = read_graph(args.graph)
    h = _parse_h(args.h)
    beta = _parse_beta(args.beta, h.q)
    cfg = sample(Model(g, h, beta), burn_in_sweeps=args.burnin, seed=args.seed)
    write_configuration(args.out, cfg, meta=_meta(args, beta=beta.tolist()))


def _cmd_estimate(args) -> None:
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
    _write_json(args.out, {**json.loads(report_to_json(report)), "meta": _meta(args)})


def _cmd_exact(args) -> None:
    g = read_graph(args.graph)
    h = _parse_h(args.h)
    beta = _parse_beta(args.beta, h.q)
    summary = enumerate_exact(Model(g, h, beta), state_cap=args.cap)
    payload = {
        "log_partition": summary.log_partition,
        "expected_counts": [float(x) for x in summary.expected_counts],
        "expected_unconstrained": [float(x) for x in summary.expected_unconstrained],
        "meta": _meta(args, beta=beta.tolist()),
    }
    _write_json(args.out, payload)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_vector(x) -> bool:
    """A JSON list of numbers."""
    return isinstance(x, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in x
    )


def _check_experiment_settings(settings: dict, kind) -> None:
    """Reject an unknown kind or wrongly typed settings before an experiment
    starts any work."""
    if kind not in ("consistency", "gradient_concentration", "kl"):
        raise ParameterError(f"unknown experiment kind {kind!r}")
    graph = settings.get("graph")
    if not (
        isinstance(graph, dict)
        and isinstance(graph.get("kind"), str)
        and isinstance(graph.get("params", {}), dict)
    ):
        raise ParameterError('"graph" must be an object with a string "kind" and object "params"')
    if not isinstance(settings.get("h"), str):
        raise ParameterError('"h" must be a preset spec or a constraint-file path')
    if not isinstance(settings.get("h_name", ""), str):
        raise ParameterError(f'"h_name" must be a string, got {settings["h_name"]!r}')
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


def _cmd_experiment(args) -> None:
    if args.jobs < 1:
        raise ParameterError(f"--jobs must be at least 1, got {args.jobs}")
    with open(args.settings) as fh:
        settings = json.load(fh)
    if not isinstance(settings, dict):
        raise ParameterError("an experiment settings file must hold a JSON object")
    kind = settings.get("experiment")
    _check_experiment_settings(settings, kind)
    meta = _meta(args, resolved=settings)
    family = GraphFamily(settings["graph"]["kind"], settings["graph"].get("params", {}))
    if kind == "kl":  # the graph is built before h is read, so its error wins
        g = generate(family.kind, family.params, seed=args.seed)
    h = _parse_h(settings["h"])
    h_name = settings.get("h_name", settings["h"])
    sampler_settings = {"burn_in_sweeps": settings.get("burn_in_sweeps")}
    if kind == "kl":
        result = kl_exact(
            g,
            h,
            settings["beta_a"],
            settings["beta_b"],
            state_cap=settings.get("state_cap", DEFAULT_STATE_CAP),
            method=settings.get("method", "brute_force"),
        )
        _write_json(args.out, {**dataclasses.asdict(result), "meta": meta})
    elif kind == "consistency":
        rows = consistency_experiment(
            family,
            h,
            settings["beta"],
            settings["n_list"],
            settings["replicates"],
            sampler_settings=sampler_settings,
            seed=args.seed,
            h_name=h_name,
            jobs=args.jobs,
        )
        with open(args.out, "w") as fh:
            fh.write(rows_to_csv(rows, meta=meta))
    else:
        result = gradient_concentration(
            ModelFamily(family, h, tuple(settings["beta"]), h_name=h_name),
            settings["n_list"],
            settings["replicates"],
            seed=args.seed,
            sampler_settings=sampler_settings,
            jobs=args.jobs,
        )
        with open(args.out, "w") as fh:
            fh.write("# meta: " + json.dumps(meta, sort_keys=True) + "\n")
            fh.write("n,mean_scaled_grad_sq,replicates,seed\n")
            for n in settings["n_list"]:
                fh.write(f"{n},{result[n]!r},{settings['replicates']},{args.seed}\n")


def _cmd_diagnose(args) -> None:
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
        "meta": _meta(args, beta=beta.tolist()),
    }
    _write_json(args.out, payload)


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
        _check_out(args.out)
        if getattr(args, "seed", 0) < 0:  # numpy seeds only from non-negative integers
            raise ParameterError(f"--seed must be non-negative, got {args.seed}")
        args.func(args)
        return 0
    except EnumerationCapError as exc:
        print(_error_json(exc))
        return _EXIT_CAP
    except (InfeasibleModelError, FeasibilityUnknownError) as exc:
        print(_error_json(exc))
        return _EXIT_INFEASIBLE
    except (HColorError, OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError) as exc:
        print(_error_json(exc))
        return _EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
