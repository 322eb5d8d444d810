"""Heat-bath dynamics, feasibility search, and exact oracles.

The update rule resamples a vertex from its exact conditional distribution
given the rest of the configuration, so every update preserves validity and
the valid-configuration law with the model's weights is stationary. The
vertices are split once per graph into the classes of a greedy proper
coloring (:attr:`Graph.color_classes`); one *sweep* is one pass over these
classes, resampling all vertices of a class at once, which is exact because
they share no edge. Every vertex is updated once per sweep, and a chain
reaches the same states as under single-site moves. A class update reads the
neighbors' color set at each vertex and replicate, one bit per color; for
q <= 12 that set indexes a table of cumulative color weights, built once per
distinct activity row (one table when every replicate carries the model's
activities), and for larger q the weights are formed from the set.

Caveat: for some hard-constraint models single-site moves, and so this
chain, are not irreducible (e.g. the six proper 3-colorings of a triangle are
all frozen). Use :func:`is_glauber_irreducible` to check enumerable instances
before trusting distributional output; larger instances inherit whatever
sector the initial configuration lies in.

The exact oracles read one :class:`ExactSummary` per model. It holds the (S, n)
array of all valid configurations in lexicographic order, built level by level
(:func:`enumerate_exact`), their (S, n, q) allowed sets, and the list of the
single-site moves between its rows, built at the first check that needs it;
detailed balance, irreducibility and the empirical TV distance all reuse them.
Its ``state_probabilities`` is a read-only mapping view over the state array,
not a copy. :func:`find_valid_configuration` stays a backtracking search: it
needs one solution, also where no such array fits.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EnumerationCapError,
    FeasibilityUnknownError,
    InfeasibleModelError,
    ParameterError,
)
from .graphs import Graph
from .model import ConstraintGraph, Model, _allowed_sets, _conditional_law, require_valid

__all__ = [
    "find_valid_configuration",
    "sample",
    "sample_many",
    "default_burn_in",
    "ExactSummary",
    "enumerate_exact",
    "tv_distance_empirical",
    "is_glauber_irreducible",
    "max_detailed_balance_violation",
    "DEFAULT_STATE_CAP",
]

DEFAULT_STATE_CAP = 20_000_000
DEFAULT_SEARCH_BUDGET = 1_000_000


def default_burn_in(n: int) -> int:
    """Default burn-in sweeps: 200 * ceil(log(n + 1)).

    A tested-at-desk-scale heuristic, not a mixing-time guarantee; acceptance
    checks always compare against the exact law where enumeration is feasible.
    """
    return 200 * math.ceil(math.log(n + 1))


# ---------------------------------------------------------------------------
# Feasibility: backtracking search for a valid configuration
# ---------------------------------------------------------------------------


def find_valid_configuration(
    g: Graph,
    h: ConstraintGraph,
    seed: int = 0,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> np.ndarray:
    """Return some valid configuration, deterministically for a given seed.

    Constant colorings are tried first (cheap and always valid when the color
    has a self-loop), then an iterative backtracking search with seeded color
    orderings. Raises :class:`InfeasibleModelError` if the search tree is
    exhausted and :class:`FeasibilityUnknownError` if ``budget`` node
    expansions were spent first.
    """
    n, q = g.n, h.q
    has_edges = g.edge_count() > 0
    for s in range(q):
        if not has_edges or h.allows(s, s):
            return np.full(n, s, dtype=np.int64)

    rng = np.random.default_rng(seed)
    color_order = np.stack([rng.permutation(q) for _ in range(n)])
    back_nbrs = g.lower_neighbors
    colors = np.full(n, -1, dtype=np.int64)
    choice = np.zeros(n, dtype=np.int64)  # next color-order index to try per depth
    allow = h.allow_matrix
    expansions = 0
    depth = 0
    while True:
        if depth == n:
            return colors.copy()
        advanced = False
        while choice[depth] < q:
            s = color_order[depth, choice[depth]]
            choice[depth] += 1
            expansions += 1
            if expansions > budget:
                raise FeasibilityUnknownError(
                    f"search budget of {budget} expansions exhausted; feasibility unknown"
                )
            if all(allow[s, colors[v]] for v in back_nbrs[depth]):
                colors[depth] = s
                depth += 1
                if depth < n:
                    choice[depth] = 0
                advanced = True
                break
        if advanced:
            continue
        colors[depth] = -1
        depth -= 1
        if depth < 0:
            raise InfeasibleModelError("no valid configuration exists")


# ---------------------------------------------------------------------------
# Chromatic block heat-bath engine over replicate rows
# ---------------------------------------------------------------------------

# The cumulative-weight lookup table serves at most 2**16 pairs of a distinct
# activity row and an allowed-color mask (2**q masks); it is keyed by the
# neighbors' color set, 2**(q+1) keys per activity row. The two paths round
# differently, so moving this boundary would change samples.
_TABLE_MAX_Q = 12
_TABLE_MAX_ROWS = 1 << 16


class _Engine:
    """Chromatic block heat-bath engine over R replicate rows.

    ``colors`` has shape (n+1, R) and an unsigned dtype wide enough for q:
    column r is replicate r, and the final row permanently holds the sentinel
    color q, paired with the padded adjacency so ragged neighbor lists
    vectorize. A sweep resamples the graph's color classes in turn
    (Gonzalez, Low, Gretton & Guestrin, AISTATS 2011). A class has no inner
    edges, so its vertices are conditionally independent given the rest, and
    one vectorized draw over all of its vertices and all rows is an exact
    conditional resample. Each row consumes its own uniforms, so replicates
    are mutually independent (rows may even carry different activities).

    Each class update first forms the neighbors' color set at every (vertex,
    row): the OR of ``1 << color`` over the padded neighbor block, with the
    sentinel at bit q, in ``q // 64 + 1`` words. Color s is allowed when the
    set holds no color that s may not sit next to. With q <= 12 and few
    distinct activity rows the set indexes a table of normalized cumulative
    color weights, one row per (activity group, set) pair; otherwise the
    cumulative weights are formed from the set at each update. Without
    ``beta_rows`` every row carries the model's activities: one group.
    """

    def __init__(self, model: Model, beta_rows: np.ndarray | None, replicates: int):
        g, q = model.graph, model.q
        self.q = q
        self.dtype = np.min_scalar_type(q)
        self.blocks = [(cls, g.padded_adjacency[cls].T.copy()) for cls in g.color_classes]
        self.words = q // 64 + 1
        self.word_dtype = np.min_scalar_type(1 << q) if self.words == 1 else np.dtype(np.uint64)
        # bit t of forbidden[t >> 6, s]: color s may not sit next to color t;
        # the sentinel bit q is never set
        forbid = [sum(1 << t for t in np.flatnonzero(~row).tolist()) for row in model.h.allow_matrix]
        self.forbidden = np.array(
            [[f >> 64 * w & (1 << 64) - 1 for f in forbid] for w in range(self.words)],
            dtype=self.word_dtype,
        )  # (words, q)
        self.log_w = self._log_weights(model, beta_rows, replicates)  # (R or 1, q), row max 0
        if beta_rows is None:
            groups, inverse = self.log_w, None
        else:
            groups, inverse = np.unique(self.log_w, axis=0, return_inverse=True)
        self.table = None
        if q <= _TABLE_MAX_Q and groups.shape[0] << q <= _TABLE_MAX_ROWS:
            masks = (np.arange(1 << q)[:, None] >> np.arange(q)) & 1 == 1  # (2**q, q)
            lw = np.where(masks, groups[:, None, :], -np.inf)  # (G, 2**q, q)
            lw[:, 0, :] = 0.0  # mask 0 never occurs: the current color is always allowed
            cum = np.cumsum(np.exp(lw - lw.max(axis=2, keepdims=True)), axis=2)
            by_mask = cum[..., :-1] / cum[..., -1:]  # (G, 2**q, q-1)
            sets = np.arange(2 << q, dtype=self.word_dtype)
            mask_of_set = ((sets[:, None] & self.forbidden[0]) == 0) @ (1 << np.arange(q))
            # row (group, set) holds the floats of row (group, allowed mask of set)
            self.table = by_mask[:, mask_of_set].reshape(-1, q - 1).T.copy()  # (q-1, G * 2**(q+1))
            self.group_offset = 0 if inverse is None else inverse.reshape(-1).astype(np.intp) << q + 1

    @staticmethod
    def _log_weights(model: Model, beta_rows: np.ndarray | None, replicates: int) -> np.ndarray:
        if beta_rows is None:
            full = model.beta_full[None, :]
        else:
            rows = np.asarray(beta_rows, dtype=np.float64)
            if rows.shape != (replicates, model.q - 1):
                raise ParameterError("beta_rows must have shape (replicates, q-1)")
            if not np.isfinite(rows).all():
                raise ParameterError("beta_rows entries must be finite")
            full = np.concatenate([np.zeros((replicates, 1)), rows], axis=1)
        return full - full.max(axis=1, keepdims=True)

    def run(self, colors: np.ndarray, sweeps: int, rng: np.random.Generator) -> None:
        """Apply ``sweeps`` passes over the color classes to ``colors`` in place."""
        R = colors.shape[1]
        for _ in range(sweeps):
            for cls, nbrs in self.blocks:
                # one uniform per (row, vertex), laid out (vertex, row) like the lookups
                unis = np.ascontiguousarray(rng.random((R, cls.shape[0])).T)
                sets = self._color_sets(colors, nbrs)
                colors[cls] = self._draw(sets, unis)

    def _color_sets(self, colors: np.ndarray, nbrs: np.ndarray) -> list[np.ndarray]:
        """The neighbors' color set at each (vertex, row) of a class update,
        as ``self.words`` (k, R) words: bit t of word t >> 6 is set when some
        neighbor has color t. ``nbrs`` is the (degree, k) padded block."""
        sets = None
        for col in nbrs:
            c = colors.take(col, axis=0)
            if self.words == 1:
                bits = [np.left_shift(1, c, dtype=self.word_dtype)]
            else:
                bit, word = np.left_shift(1, c & 63, dtype=np.uint64), c >> 6
                bits = [np.where(word == w, bit, 0) for w in range(self.words)]
            if sets is None:
                sets = bits
            else:
                for s, b in zip(sets, bits):
                    s |= b
        return sets

    def _draw(self, sets: list[np.ndarray], unis: np.ndarray) -> np.ndarray:
        """New colors at each (vertex, row): the number of cumulative weights
        of colors 0..q-2 below the draw target."""
        if self.table is not None:
            key = np.add(sets[0], self.group_offset, dtype=np.intp)
            new = np.empty(unis.shape, dtype=np.uint8)
            np.less(self.table[0].take(key), unis, out=new.view(bool))
            below = np.empty(unis.shape, dtype=bool)
            for col in self.table[1:]:
                np.less(col.take(key), unis, out=below)
                new += below.view(np.uint8)
            return new
        q, lw = self.q, self.log_w
        allowed = []
        for s in range(q):
            ok = (sets[0] & self.forbidden[0, s]) == 0
            for w in range(1, self.words):
                ok &= (sets[w] & self.forbidden[w, s]) == 0
            allowed.append(ok)

        # shift by the largest allowed log-weight so no allowed color underflows
        top = np.full(unis.shape, -np.inf)
        for s in range(q):
            np.maximum(top, np.where(allowed[s], lw[:, s], -np.inf), out=top)

        def weight(s):
            return np.exp(np.where(allowed[s], lw[:, s] - top, -np.inf))

        targets = unis * sum(weight(s) for s in range(q))
        new = np.zeros(unis.shape, dtype=self.dtype)
        for cum in itertools.accumulate(weight(s) for s in range(q - 1)):
            new += cum < targets
        return new


# ---------------------------------------------------------------------------
# Sampling entry points
# ---------------------------------------------------------------------------


def _run_chains(
    model: Model,
    replicates: int,
    burn_in_sweeps: int | None,
    seed,
    start,
    beta_rows: np.ndarray | None,
) -> np.ndarray:
    """The one engine driver behind :func:`sample` and :func:`sample_many`."""
    if replicates < 0:
        raise ParameterError("replicates must be nonnegative")
    if burn_in_sweeps is None:
        burn_in_sweeps = default_burn_in(model.n)
    if burn_in_sweeps < 0:
        raise ParameterError("burn-in sweeps must be nonnegative")
    if start is None:
        base_seed = seed if isinstance(seed, (int, np.integer)) else 0
        start = find_valid_configuration(model.graph, model.h, seed=int(base_seed))
    start = require_valid(start, model.graph, model.h)
    if replicates == 0:
        return np.empty((0, model.n), dtype=np.int64)
    engine = _Engine(model, beta_rows, replicates)
    colors = np.repeat(np.append(start, model.q).astype(engine.dtype)[:, None], replicates, axis=1)
    engine.run(colors, burn_in_sweeps, np.random.default_rng(seed))
    return np.ascontiguousarray(colors[:-1].T, dtype=np.int64)


def sample(model: Model, burn_in_sweeps: int | None = None, seed: int = 0) -> np.ndarray:
    """One configuration after burn-in from a fresh chain: row 0 of
    :func:`sample_many` with one replicate. Deterministic per seed."""
    return _run_chains(model, 1, burn_in_sweeps, seed, None, None)[0]


def sample_many(
    model: Model,
    replicates: int,
    burn_in_sweeps: int | None = None,
    seed=0,
    start=None,
    beta_rows: np.ndarray | None = None,
) -> np.ndarray:
    """(replicates, n) array of independently evolved chains from one start.

    Each chain runs ``burn_in_sweeps`` sweeps, and a sweep resamples every
    vertex once, color class by color class. All chains begin at the same
    configuration (found per ``seed`` when ``start`` is omitted) and consume
    disjoint randomness. ``beta_rows`` optionally overrides the model
    activities per replicate, which lets experiments batch several parameter
    settings through one engine run; rows with different activities remain
    mutually independent.
    """
    return _run_chains(model, replicates, burn_in_sweeps, seed, start, beta_rows)


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------


@dataclass
class ExactSummary:
    """Exact finite-model summary from full enumeration.

    ``states`` is the (S, n) array of all valid configurations in
    lexicographic order (in the smallest unsigned dtype that holds q) and
    ``probabilities`` their probabilities. ``expected_counts[r]`` and
    ``expected_unconstrained[r]`` are the exact means of the color counts and
    the allowed-at counts. ``allowed`` is the (S, n, q) array of allowed
    sets: entry (i, u, s) says vertex u of state i may take color s given the
    rest of it. ``model`` is the model that was enumerated.

    The states and allowed sets do not depend on the activities. The exact
    checks read them and one list of the single-site moves between the
    states, built at the first check that needs it and reused by every later
    one; ``state_probabilities`` is a read-only mapping view over ``states``
    and ``probabilities``.
    """

    log_partition: float
    expected_counts: np.ndarray
    expected_unconstrained: np.ndarray
    states: np.ndarray
    probabilities: np.ndarray
    allowed: np.ndarray
    model: Model

    @property
    def state_probabilities(self) -> Mapping[tuple[int, ...], float]:
        """Read-only mapping view from each state, as a tuple, to its
        probability, iterating in lexicographic order; nothing is copied."""
        return _StateTable(self.states, self.probabilities)

    @cached_property
    def _moves(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return _single_site_moves(self.states, self.allowed)


class _StateTable(Mapping):
    """Read-only mapping view over the rows of an (S, n) state array and their
    probabilities. Keys are tuples of n integer colors; lookup is a binary
    search over the lexicographically ordered rows."""

    _CHUNK = 4096  # rows converted to tuples at a time while iterating

    def __init__(self, states: np.ndarray, probabilities: np.ndarray):
        self._states = states
        self._probabilities = probabilities

    def __len__(self) -> int:
        return self._states.shape[0]

    def __iter__(self):
        for lo in range(0, len(self), self._CHUNK):
            yield from map(tuple, self._states[lo : lo + self._CHUNK].tolist())

    def __getitem__(self, key) -> float:
        row = np.asarray(key) if isinstance(key, tuple) else None
        if (
            row is None
            or row.shape != self._states.shape[1:]
            or row.dtype.kind not in "biu"
            or ((row < 0) | (row > np.iinfo(self._states.dtype).max)).any()
        ):
            raise KeyError(key)
        k = int(_lookup(self._states, row[None])[0])
        if k == len(self) or not np.array_equal(self._states[k], row):
            raise KeyError(key)
        return float(self._probabilities[k])


def _enumerate_states(g: Graph, h: ConstraintGraph, cap: int) -> np.ndarray:
    """(S, n) array of all valid configurations in lexicographic order.

    Level u extends every valid partial coloring of vertices 0..u-1 by each
    of the q colors and keeps the extensions that agree with u's lower
    neighbors. ``cap`` bounds the extensions tried, q times the number of
    partial colorings at depths 0..n-1, and is checked before each level.
    """
    q, allow, lower = h.q, h.allow_matrix, g.lower_neighbors
    states = np.zeros((1, 0), dtype=np.min_scalar_type(q))
    expansions = 0
    for u in range(g.n):
        expansions += q * states.shape[0]
        if expansions > cap:
            raise EnumerationCapError(f"enumeration exceeded the cap of {cap} node expansions")
        ok = np.ones((states.shape[0], q), dtype=bool)
        for v in lower[u]:
            ok &= allow[states[:, v]]
        parent, color = np.nonzero(ok)  # row-major, so children stay in lexicographic order
        states = np.column_stack([states[parent], color.astype(states.dtype)])
    if not states.shape[0]:
        raise InfeasibleModelError("no valid configuration exists")
    return states


def _color_counts(states: np.ndarray, q: int) -> np.ndarray:
    """(S, q) number of vertices of each color in each row."""
    return np.stack([np.count_nonzero(states == r, axis=1) for r in range(q)], axis=1)


def _log_partition(counts: np.ndarray, beta_full: np.ndarray) -> tuple[float, np.ndarray]:
    """Log-partition function and state probabilities for log-weights
    ``counts @ beta_full``, by a shifted log-sum-exp. Raises
    :class:`ParameterError` when a log-weight overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        log_w = counts @ beta_full
    if not np.isfinite(log_w).all():
        raise ParameterError("the log-weights (color counts times activities) overflow")
    m = log_w.max()
    z = np.exp(log_w - m)
    return float(m + np.log(z.sum())), z / z.sum()


def enumerate_exact(model: Model, state_cap: int = DEFAULT_STATE_CAP) -> ExactSummary:
    """Exact law of the model by level-by-level enumeration of valid partial
    colorings, vertex by vertex in index order.

    ``state_cap`` bounds node expansions (q per partial coloring), not raw
    q**n, so structured graphs far beyond brute force (e.g. a clique forcing
    the rest) still enumerate. Raises :class:`EnumerationCapError` past the
    cap and :class:`InfeasibleModelError` when no valid configuration exists.
    """
    states = _enumerate_states(model.graph, model.h, state_cap)
    counts = _color_counts(states, model.q)
    log_partition, probs = _log_partition(counts, model.beta_full)
    allowed = _allowed_sets(states, model.graph, model.h)
    return ExactSummary(
        log_partition, probs @ counts, probs @ allowed.sum(axis=1), states, probs, allowed, model
    )


# ---------------------------------------------------------------------------
# Diagnostics against the exact law
# ---------------------------------------------------------------------------


def _lookup(states: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each row of ``rows`` in ``states``, which must hold it and be
    in lexicographic order: rows are compared as big-endian byte strings."""

    def keys(a):
        a = np.ascontiguousarray(a, dtype=states.dtype.newbyteorder(">"))
        return a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel()

    return np.searchsorted(keys(states), keys(rows))


def _single_site_moves(states: np.ndarray, allowed: np.ndarray):
    """Every single-site move between enumerated states, as index arrays
    (i, u, c, j) in increasing order of (i, u, c): recoloring vertex u of
    state i to the allowed color c, other than its own, gives state j."""
    other = allowed & (states[..., None] != np.arange(allowed.shape[2], dtype=states.dtype))
    i, u, c = np.nonzero(other)
    rows = states[i]
    rows[np.arange(i.size), u] = c
    return i, u, c, _lookup(states, rows)


def _summary_of(model: Model, summary: ExactSummary | None) -> ExactSummary:
    """``summary``, checked to be the enumeration of ``model`` (same graph,
    constraint graph and activities), or a new enumeration when it is None."""
    if summary is None:
        return enumerate_exact(model)
    own = summary.model
    if own is model:
        return summary
    g, other = own.graph, model.graph
    if g is not other and not (
        g.n == other.n
        and np.array_equal(g.indptr, other.indptr)
        and np.array_equal(g.indices, other.indices)
    ):
        raise ParameterError("the exact summary was enumerated on a different graph")
    if own.h != model.h:
        raise ParameterError("the exact summary was enumerated for a different constraint graph")
    if not np.array_equal(own.beta_full, model.beta_full):
        raise ParameterError("the exact summary was enumerated at different activities")
    return summary


def tv_distance_empirical(
    model: Model,
    sweeps: int,
    replicates: int,
    seed: int = 0,
    summary: ExactSummary | None = None,
) -> float:
    """Total-variation distance between the empirical law of independent
    chains (all started from one fixed configuration) and the exact law.
    ``summary`` is ``model``'s enumeration, made here when omitted."""
    if sweeps < 0:
        raise ParameterError("sweeps must be nonnegative")
    if replicates < 1:
        raise ParameterError("replicates must be positive")
    summary = _summary_of(model, summary)
    draws = sample_many(model, replicates, burn_in_sweeps=sweeps, seed=seed)
    hits = np.bincount(_lookup(summary.states, draws), minlength=summary.states.shape[0])
    return 0.5 * float(np.abs(hits / replicates - summary.probabilities).sum())


def is_glauber_irreducible(model: Model, summary: ExactSummary | None = None) -> bool:
    """Check by explicit reachability that single-site moves connect the
    enumerated state space, searching breadth-first from the first state."""
    summary = _summary_of(model, summary)
    i, _, _, j = summary._moves
    seen = np.arange(summary.states.shape[0]) == 0
    reached = 0
    while seen.sum() > reached:  # one breadth-first level per pass
        reached = seen.sum()
        seen[j[seen[i]]] = True
    return bool(seen.all())


def max_detailed_balance_violation(
    model: Model, summary: ExactSummary | None = None
) -> float:
    """Max |P(s) K(s->t) - P(t) K(t->s)| over single-site transition pairs,
    where K picks a vertex uniformly and redraws it from its conditional law."""
    summary = _summary_of(model, summary)
    states, p = summary.states, summary.probabilities
    i, u, c, j = summary._moves
    # A vertex's allowed set, and so its conditional law, does not depend on
    # its own color: a move and its reverse read one law row, and the rows are
    # formed only at the (state, vertex) pairs where some move starts.
    source = i * model.n + u
    first = np.ones(source.size, dtype=bool)
    first[1:] = source[1:] != source[:-1]  # moves come grouped by source
    law = _conditional_law(summary.allowed.reshape(-1, model.q)[source[first]], model.beta_full)
    row = np.cumsum(first) - 1
    flow = p[i] * law[row, c]
    back = p[j] * law[row, states[i, u]]
    return float(np.abs(flow - back).max(initial=0.0)) / model.n
