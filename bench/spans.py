"""Span tracing around hcolor's public functions, from outside the package.

``Tracer.install()`` replaces each function listed in ``TRACED`` by a wrapper
in the module that defines it and in the modules that import it by name, so
calls made by hcolor itself (``cli`` calling ``read_graph``, ``experiments``
calling ``mpl_fit``) are seen too. A span is ``(name, start, end, parent)``;
spans stay in memory and are written once, when the run ends. Counts come from
call arguments and returned values only, so they repeat exactly between runs.

Per-state checks inside the sampler's exact oracles call ``require_valid`` and
``allowed_matrix`` hundreds of thousands of times per model; those two names
are not wrapped inside ``hcolor.sampler``, and that work stays in the
sampler's own time.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

from hcolor.pseudolikelihood import DEFAULT_TOL
from hcolor.sampler import default_burn_in

# (layer, function, modules whose global name is replaced)
TRACED = [
    ("graphs", "generate", ["graphs", "experiments", "cli"]),
    ("graphs", "read_graph", ["graphs", "cli"]),
    ("graphs", "degree_stats", ["graphs", "cli"]),
    ("graphs", "neighborhood_disjoint_subset", ["graphs", "cli"]),
    ("model", "require_valid", ["model", "pseudolikelihood", "experiments", "cli"]),
    ("model", "allowed_matrix", ["model", "pseudolikelihood"]),
    ("sampler", "find_valid_configuration", ["sampler", "experiments"]),
    ("sampler", "sample", ["sampler", "cli"]),
    ("sampler", "sample_many", ["sampler", "experiments"]),
    ("sampler", "enumerate_exact", ["sampler", "cli"]),
    ("sampler", "max_detailed_balance_violation", ["sampler"]),
    ("sampler", "is_glauber_irreducible", ["sampler"]),
    ("sampler", "tv_distance_empirical", ["sampler"]),
    ("pseudolikelihood", "mpl_fit", ["pseudolikelihood", "experiments", "cli"]),
    ("pseudolikelihood", "mpl_hardcore", ["pseudolikelihood", "experiments", "cli"]),
    ("pseudolikelihood", "symmetric_eigenvalues", ["pseudolikelihood"]),
    ("pseudolikelihood", "min_eigenvalue_neg_hessian", ["pseudolikelihood", "cli"]),
    ("experiments", "consistency_experiment", ["experiments", "cli"]),
    ("experiments", "kl_exact", ["experiments", "cli"]),
    ("cli", "main", ["cli"]),
]

# Every per-layer metric, with its unit; BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "graphs.generate_s": "s",
    "graphs.read_s": "s",
    "graphs.degree_stats_s": "s",
    "graphs.disjoint_subset_s": "s",
    "model.require_valid_s": "s",
    "model.require_valid_calls": "count",
    "model.allowed_matrix_s": "s",
    "sampler.find_valid_s": "s",
    "sampler.engine_s": "s",
    "sampler.site_updates": "count",
    "sampler.ns_per_site_update": "ns",
    "sampler.enumerate_s": "s",
    "sampler.states": "count",
    "sampler.states_per_s": "1/s",
    "sampler.detailed_balance_s": "s",
    "sampler.irreducible_s": "s",
    "sampler.tv_self_s": "s",
    "pseudolikelihood.fit_s": "s",
    "pseudolikelihood.fit_calls": "count",
    "pseudolikelihood.fit_iterations": "count",
    "pseudolikelihood.converged_ratio": "ratio",
    "pseudolikelihood.closed_form_s": "s",
    "pseudolikelihood.eigen_s": "s",
    "experiments.consistency_self_s": "s",
    "experiments.kl_exact_s": "s",
    "cli.command_s": "s",
    "cli.self_s": "s",
    "trace.op_s": "s",
    "trace.spans": "count",
}


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _site_updates(fn_name: str, args, kwargs) -> int:
    """Site updates times rows requested by a sample / sample_many call."""
    model = args[0]
    if fn_name == "sample":
        sweeps, rows = _arg(args, kwargs, 1, "burn_in_sweeps"), 1
    else:
        rows = int(_arg(args, kwargs, 1, "replicates"))
        sweeps = _arg(args, kwargs, 2, "burn_in_sweeps")
    if sweeps is None:
        sweeps = default_burn_in(model.n)
    return int(sweeps) * model.n * rows


def _fit_counts(args, kwargs, report) -> dict:
    tol = _arg(args, kwargs, 5, "tol", DEFAULT_TOL)
    grad = report.final_gradient_norm
    return {"iterations": report.iterations, "converged": int(grad is not None and grad <= tol)}


# counts recorded on a span, from the call's arguments and its result
COUNTS = {
    "sampler.sample": lambda a, k, r: {"site_updates": _site_updates("sample", a, k)},
    "sampler.sample_many": lambda a, k, r: {"site_updates": _site_updates("sample_many", a, k)},
    "sampler.enumerate_exact": lambda a, k, r: {"states": len(r.state_probabilities)},
    "pseudolikelihood.mpl_fit": _fit_counts,
}


class Tracer:
    """Collects spans for one process; install once, read with ``metrics()``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.upto: int | None = None  # metrics use spans[:upto]; None means all

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, counts: dict | None = None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = counts
        self._stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if count:
                    counts = count(args, kwargs, result)
                return result
            finally:
                self._close(idx, counts)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        for layer, fn_name, modules in TRACED:
            original = getattr(importlib.import_module(f"hcolor.{layer}"), fn_name)
            wrapper = self.wrap(f"{layer}.{fn_name}", original)
            for mod_name in modules:
                mod = importlib.import_module(f"hcolor.{mod_name}")
                if getattr(mod, fn_name) is not original:
                    raise RuntimeError(f"hcolor.{mod_name}.{fn_name} is not {layer}.{fn_name}")
                self._undo.append((mod, fn_name, original))
                setattr(mod, fn_name, wrapper)
        return self

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._undo):
            setattr(mod, fn_name, original)
        self._undo.clear()

    # -- derivation --------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """(self time, call count, summed counts) per span name."""
        spans = self.spans[: self.upto]
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, extra) in enumerate(spans):
            own[name] += end - start - child_time[i]
            calls[name] += 1
            for key, value in (extra or {}).items():
                counts[name][key] += value
        return own, calls, counts

    def inclusive(self, *names: str) -> float:
        """Time in spans of these names, counting only the outermost of nested
        ones, so recursion (``generate`` building union parts) or a wrapped
        function calling another of ``names`` is not counted twice."""
        wanted = set(names)
        total = 0.0
        for name, start, end, parent, _ in self.spans[: self.upto]:
            if name in wanted and not self._inside(parent, wanted):
                total += end - start
        return total

    def _inside(self, parent: int, wanted: set) -> bool:
        while parent >= 0:
            if self.spans[parent][0] in wanted:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self, traced_op_s: float) -> dict[str, float]:
        own, calls, cnt = self.totals()
        inc = self.inclusive
        engine_s = own["sampler.sample"] + own["sampler.sample_many"]
        site_updates = cnt["sampler.sample"]["site_updates"] + cnt["sampler.sample_many"]["site_updates"]
        enumerate_s = inc("sampler.enumerate_exact")
        states = cnt["sampler.enumerate_exact"]["states"]
        fit_calls = calls["pseudolikelihood.mpl_fit"]
        values = {
            "graphs.generate_s": inc("graphs.generate"),
            "graphs.read_s": inc("graphs.read_graph"),
            "graphs.degree_stats_s": inc("graphs.degree_stats"),
            "graphs.disjoint_subset_s": inc("graphs.neighborhood_disjoint_subset"),
            "model.require_valid_s": inc("model.require_valid"),
            "model.require_valid_calls": calls["model.require_valid"],
            "model.allowed_matrix_s": inc("model.allowed_matrix"),
            "sampler.find_valid_s": inc("sampler.find_valid_configuration"),
            "sampler.engine_s": engine_s,
            "sampler.site_updates": site_updates,
            "sampler.ns_per_site_update": 1e9 * engine_s / site_updates if site_updates else 0.0,
            "sampler.enumerate_s": enumerate_s,
            "sampler.states": states,
            "sampler.states_per_s": states / enumerate_s if enumerate_s else 0.0,
            "sampler.detailed_balance_s": inc("sampler.max_detailed_balance_violation"),
            "sampler.irreducible_s": inc("sampler.is_glauber_irreducible"),
            "sampler.tv_self_s": own["sampler.tv_distance_empirical"],
            "pseudolikelihood.fit_s": inc("pseudolikelihood.mpl_fit"),
            "pseudolikelihood.fit_calls": fit_calls,
            "pseudolikelihood.fit_iterations": cnt["pseudolikelihood.mpl_fit"]["iterations"],
            "pseudolikelihood.converged_ratio": (
                cnt["pseudolikelihood.mpl_fit"]["converged"] / fit_calls if fit_calls else 0.0
            ),
            "pseudolikelihood.closed_form_s": inc("pseudolikelihood.mpl_hardcore"),
            "pseudolikelihood.eigen_s": inc(
                "pseudolikelihood.min_eigenvalue_neg_hessian", "pseudolikelihood.symmetric_eigenvalues"
            ),
            "experiments.consistency_self_s": own["experiments.consistency_experiment"],
            "experiments.kl_exact_s": inc("experiments.kl_exact"),
            "cli.command_s": inc("cli.main"),
            "cli.self_s": own["cli.main"],
            "trace.op_s": traced_op_s,
            "trace.spans": len(self.spans[: self.upto]),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {name: i for i, name in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[code[n], s, e, p] + ([c] if c else []) for n, s, e, p, c in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")

