"""Constraint graphs on colors, model definition, and configuration statistics.

A constraint graph on q colors (self-loops allowed) encodes which color pairs
may sit on adjacent vertices of the interaction graph. A model combines an
interaction graph, a constraint graph and activity parameters
``beta = (beta_1, ..., beta_{q-1})`` with ``beta_0 = 0`` fixed: the probability
of a valid coloring is proportional to ``exp(sum_r beta_r * count_r)``.
"""
from __future__ import annotations

import json
from typing import Iterable

import numpy as np

from .errors import (
    DisconnectedConstraintError,
    FullyLooseConstraintError,
    GraphFormatError,
    InvalidConfigurationError,
    ParameterError,
)
from .graphs import Graph, _parse_json, _write_json

__all__ = [
    "ConstraintGraph",
    "Model",
    "PRESET_NAMES",
    "preset",
    "is_hardcore",
    "is_valid",
    "require_valid",
    "allowed_matrix",
    "unconstrained_counts",
    "constraint_to_json",
    "constraint_from_json",
    "write_constraint",
    "read_constraint",
    "configuration_to_json",
    "configuration_from_json",
    "write_configuration",
    "read_configuration",
]


class ConstraintGraph:
    """Symmetric relation on colors 0..q-1; self-loops permitted.

    Instances are immutable by convention and safe to share across threads.
    Connectivity and no-fully-loose checks are deferred to model construction
    so that any syntactically valid constraint graph can be built, inspected,
    and serialized.
    """

    def __init__(self, q: int, edges: Iterable[tuple[int, int]]):
        if q < 2:
            raise ParameterError(f"constraint graph needs q >= 2 colors, got {q}")
        canon = set()
        for s, t in edges:
            if not (0 <= s < q and 0 <= t < q):
                raise ParameterError(f"color pair ({s}, {t}) out of range for q={q}")
            canon.add((min(s, t), max(s, t)))
        self.q = q
        self.edges = frozenset(canon)
        allow = np.zeros((q, q), dtype=bool)
        for s, t in canon:
            allow[s, t] = True
            allow[t, s] = True
        allow.setflags(write=False)
        self.allow_matrix = allow

    def allows(self, s: int, t: int) -> bool:
        return bool(self.allow_matrix[s, t])

    def neighbors(self, s: int) -> tuple[int, ...]:
        return tuple(int(t) for t in np.flatnonzero(self.allow_matrix[s]))

    def is_fully_loose(self) -> bool:
        """True when every pair, including every self-loop, is allowed."""
        return bool(self.allow_matrix.all())

    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            s = stack.pop()
            for t in self.neighbors(s):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return len(seen) == self.q

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConstraintGraph)
            and self.q == other.q
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.q, self.edges))

    def __repr__(self) -> str:
        return f"ConstraintGraph(q={self.q}, edges={sorted(self.edges)})"


PRESET_NAMES = frozenset(
    {"hardcore", "multistate_hardcore", "widom_rowlinson", "proper_coloring", "counterexample_h"}
)


def preset(name: str, q: int | None = None) -> ConstraintGraph:
    """Named constraint graphs.

    - ``hardcore``: two colors, occupied (1) sites may not touch.
    - ``multistate_hardcore``: levels 0..q, pair (s, t) allowed iff s + t <= q.
    - ``widom_rowlinson``: two particle types that may not touch each other.
    - ``proper_coloring``: q colors, equal colors forbidden on an edge.
    - ``counterexample_h``: four colors; 0,1,2 pairwise adjacent without
      self-loops, and color 3 attached only to color 2.
    """
    if name == "hardcore":
        return ConstraintGraph(2, [(0, 0), (0, 1)])
    if name == "multistate_hardcore":
        if q is None or q < 1:
            raise ParameterError("multistate_hardcore requires q >= 1")
        return ConstraintGraph(q + 1, [(s, t) for s in range(q + 1) for t in range(s, q + 1) if s + t <= q])
    if name == "widom_rowlinson":
        return ConstraintGraph(3, [(0, 0), (0, 1), (0, 2), (1, 1), (2, 2)])
    if name == "proper_coloring":
        if q is None or q < 2:
            raise ParameterError("proper_coloring requires q >= 2")
        return ConstraintGraph(q, [(s, t) for s in range(q) for t in range(s + 1, q)])
    if name == "counterexample_h":
        return ConstraintGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    raise ParameterError(f"unknown preset '{name}'")


def is_hardcore(h: ConstraintGraph) -> bool:
    return h == preset("hardcore")


class Model:
    """Interaction graph + constraint graph + activity parameters.

    ``beta`` has length q-1 (the reference color 0 carries weight 1).
    Construction rejects constraint graphs that are fully loose or
    disconnected; existence of a valid configuration is checked lazily by the
    sampler. Instances are immutable by convention.
    """

    def __init__(self, graph: Graph, h: ConstraintGraph, beta):
        beta_arr = np.asarray(beta, dtype=np.float64).reshape(-1)
        if beta_arr.shape != (h.q - 1,):
            raise ParameterError(
                f"beta must have length q-1={h.q - 1}, got {beta_arr.shape[0]}"
            )
        if not np.all(np.isfinite(beta_arr)):
            raise ParameterError("beta entries must be finite")
        if h.is_fully_loose():
            raise FullyLooseConstraintError(
                "constraint graph allows every pair: nothing to estimate"
            )
        if not h.is_connected():
            raise DisconnectedConstraintError("constraint graph is disconnected")
        beta_arr.setflags(write=False)
        self.graph = graph
        self.h = h
        self.beta = beta_arr
        full = np.concatenate([[0.0], beta_arr])
        full.setflags(write=False)
        self.beta_full = full

    @property
    def q(self) -> int:
        return self.h.q

    @property
    def n(self) -> int:
        return self.graph.n

    def __repr__(self) -> str:
        return f"Model(n={self.n}, q={self.q}, beta={self.beta.tolist()})"


# ---------------------------------------------------------------------------
# Configuration predicates and statistics
# ---------------------------------------------------------------------------


def _as_colors(cfg, n: int, q: int) -> np.ndarray:
    arr = np.asarray(cfg, dtype=np.int64).reshape(-1)
    if arr.shape[0] != n:
        raise InvalidConfigurationError(
            f"configuration length {arr.shape[0]} does not match n={n}"
        )
    if arr.size and (arr.min() < 0 or arr.max() >= q):
        raise InvalidConfigurationError(f"colors must lie in [0, {q})")
    return arr


def is_valid(cfg, g: Graph, h: ConstraintGraph) -> bool:
    """True iff every edge of g carries an allowed color pair."""
    colors = _as_colors(cfg, g.n, h.q)
    eu, ev = g.edge_endpoints
    return bool(h.allow_matrix[colors[eu], colors[ev]].all())


def require_valid(cfg, g: Graph, h: ConstraintGraph) -> np.ndarray:
    colors = _as_colors(cfg, g.n, h.q)
    if not is_valid(colors, g, h):
        raise InvalidConfigurationError("configuration violates hard constraints")
    return colors


def allowed_matrix(cfg, g: Graph, h: ConstraintGraph) -> np.ndarray:
    """(n, q) boolean matrix: entry (u, s) says recoloring u to s stays valid."""
    return _allowed_sets(_as_colors(cfg, g.n, h.q)[None, :], g, h)[0]


def _allowed_sets(states: np.ndarray, g: Graph, h: ConstraintGraph) -> np.ndarray:
    """(S, n, q) boolean array: entry (i, u, s) says recoloring vertex u of
    row i to s keeps every edge at u allowed. Rows are not validated."""
    tolerates = np.ones((h.q + 1, h.q), dtype=bool)  # row t: colors allowed next to color t
    tolerates[: h.q] = h.allow_matrix
    ext = np.pad(states, ((0, 0), (0, 1)), constant_values=h.q)  # sentinel for padded slots
    ok = np.ones(states.shape + (h.q,), dtype=bool)
    for nbrs in g.padded_adjacency.T:
        ok &= tolerates[ext[:, nbrs]]
    return ok


def _conditional_law(allowed: np.ndarray, beta_full: np.ndarray) -> np.ndarray:
    """Heat-bath law along the last axis: the softmax of ``beta_full`` over
    each allowed set, shifted by its largest entry so large |beta| cannot
    overflow."""
    scores = np.where(allowed, beta_full, -np.inf)
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def unconstrained_counts(cfg, g: Graph, h: ConstraintGraph) -> np.ndarray:
    """For each color r, how many vertices could take color r right now.

    Counts every vertex where r is allowed, including vertices already colored
    r; consequently the count for r is at least the number of r-colored
    vertices. The hardcore closed form needs the count of *recolorable* empty
    sites instead, which is this count minus the color-count (see
    ``pseudolikelihood.mpl_hardcore``).
    """
    colors = require_valid(cfg, g, h)
    return allowed_matrix(colors, g, h).sum(axis=0)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _constraint_payload(h: ConstraintGraph) -> dict:
    return {"q": h.q, "edges": [[s, t] for s, t in sorted(h.edges)]}


def constraint_to_json(h: ConstraintGraph) -> str:
    return json.dumps(_constraint_payload(h), sort_keys=True)


def constraint_from_json(text: str) -> ConstraintGraph:
    payload = _parse_json(text)
    if not isinstance(payload, dict) or "q" not in payload or "edges" not in payload:
        raise GraphFormatError('constraint JSON must be an object with "q" and "edges"')
    q = payload["q"]
    if type(q) is not int or q < 2:  # JSON true/false parse to bool, not int
        raise GraphFormatError('"q" must be an integer >= 2')
    edges = payload["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be a list of [s, t] pairs')
    cleaned = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)):
            raise GraphFormatError(f"malformed edge entry {e!r}")
        s, t = e
        if s > t:
            raise GraphFormatError(f"edge [{s}, {t}] must satisfy s <= t")
        if not (0 <= s < q and 0 <= t < q):
            raise GraphFormatError(f"edge [{s}, {t}] out of range for q={q}")
        cleaned.append((s, t))
    return ConstraintGraph(q, cleaned)


def write_constraint(path, h: ConstraintGraph, meta: dict | None = None) -> None:
    _write_json(path, _constraint_payload(h), meta)


def read_constraint(path) -> ConstraintGraph:
    with open(path) as fh:
        return constraint_from_json(fh.read())


def configuration_to_json(cfg) -> str:
    return json.dumps([int(c) for c in np.asarray(cfg).reshape(-1)])


def configuration_from_json(text: str) -> np.ndarray:
    payload = _parse_json(text)
    if isinstance(payload, dict) and "configuration" in payload:
        payload = payload["configuration"]
    if not isinstance(payload, list) or not all(type(c) is int for c in payload):
        raise GraphFormatError("configuration JSON must be an array of integers")
    return np.asarray(payload, dtype=np.int64)


def write_configuration(path, cfg, meta: dict | None = None) -> None:
    """Plain JSON array; with meta, an object wrapping the array under
    "configuration" (readers accept both forms)."""
    if meta is None:
        with open(path, "w") as fh:
            fh.write(configuration_to_json(cfg) + "\n")
    else:
        _write_json(path, {"configuration": [int(c) for c in np.asarray(cfg).reshape(-1)]}, meta)


def read_configuration(path) -> np.ndarray:
    with open(path) as fh:
        return configuration_from_json(fh.read())
