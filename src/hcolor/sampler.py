"""Heat-bath dynamics, feasibility search, and exact oracles.

The update rule resamples a vertex from its exact conditional distribution
given the rest of the configuration, so every update preserves validity and
the valid-configuration law with the model's weights is stationary. The
vertices are split once per graph into the classes of a greedy proper
coloring (:attr:`Graph.color_classes`); one *sweep* is one pass over these
classes, resampling all vertices of a class at once, which is exact because
they share no edge. Every vertex is updated once per sweep, and a chain
reaches the same states as under single-site moves.

Caveat: for some hard-constraint models single-site moves, and so this
chain, are not irreducible (e.g. the six proper 3-colorings of a triangle are
all frozen). Use :func:`is_glauber_irreducible` to check enumerable instances
before trusting distributional output; larger instances inherit whatever
sector the initial configuration lies in.

The exact oracles share one (S, n) array of all valid configurations in
lexicographic order, built level by level (:func:`enumerate_exact`), and one
list of the single-site moves between its rows. :func:`find_valid_configuration`
stays a backtracking search: it needs one solution, also where no such array fits.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
    "conditional_distribution",
    "find_valid_configuration",
    "Chain",
    "glauber_sweep",
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
# Conditional law of a single site
# ---------------------------------------------------------------------------


def conditional_distribution(u: int, cfg, model: Model) -> np.ndarray:
    """Probability of each color at vertex u given all other coordinates.

    Color r gets weight exp(beta_r) when all neighbor colors of u lie in the
    constraint-neighborhood of r, and weight 0 otherwise. The support is never
    empty for a valid configuration (the current color qualifies). Computed
    with a shifted softmax so large |beta| cannot overflow.
    """
    colors = require_valid(cfg, model.graph, model.h)
    allowed = _allowed_sets(colors[None, :], model.graph, model.h)[0, u]
    return _conditional_law(allowed, model.beta_full)


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

# The cumulative-weight lookup table has one row per pair of a distinct
# activity row and an allowed-color mask: 2**q masks, at most 2**16 rows.
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

    The allowed set at a vertex is the AND of per-neighbor-color bitmasks,
    packed little-endian into bytes. With q <= 12 and few distinct activity
    rows it indexes a table of normalized cumulative color weights; otherwise
    the cumulative weights are formed from the mask bits at each update.
    """

    def __init__(self, model: Model, beta_rows: np.ndarray | None, replicates: int):
        g, q = model.graph, model.q
        self.q = q
        self.dtype = np.min_scalar_type(q)
        self.blocks = [(cls, g.padded_adjacency[cls]) for cls in g.color_classes]
        # bit s of nbr_bits[t]: color s tolerates neighbor color t; t = q is the sentinel
        tolerates = np.ones((q + 1, q), dtype=bool)
        tolerates[:q] = model.h.allow_matrix.T
        self.nbr_bits = np.packbits(tolerates, axis=1, bitorder="little")  # (q+1, bytes)
        self.log_w = self._log_weights(model, beta_rows, replicates)  # (R, q), row max 0
        groups, inverse = np.unique(self.log_w, axis=0, return_inverse=True)
        self.table = None
        if q <= _TABLE_MAX_Q and groups.shape[0] << q <= _TABLE_MAX_ROWS:
            bits = (np.arange(1 << q)[:, None] >> np.arange(q)) & 1 == 1  # (2**q, q)
            lw = np.where(bits, groups[:, None, :], -np.inf)  # (G, 2**q, q)
            lw[:, 0, :] = 0.0  # mask 0 never occurs: the current color is always allowed
            cum = np.cumsum(np.exp(lw - lw.max(axis=2, keepdims=True)), axis=2)
            self.table = (cum[..., :-1] / cum[..., -1:]).reshape(-1, q - 1).T.copy()
            self.group_offset = inverse.reshape(-1).astype(np.intp) << q  # (R,)

    @staticmethod
    def _log_weights(model: Model, beta_rows: np.ndarray | None, replicates: int) -> np.ndarray:
        if beta_rows is None:
            full = np.tile(model.beta_full, (replicates, 1))
        else:
            rows = np.asarray(beta_rows, dtype=np.float64)
            if rows.shape != (replicates, model.q - 1):
                raise ParameterError("beta_rows must have shape (replicates, q-1)")
            full = np.concatenate([np.zeros((replicates, 1)), rows], axis=1)
        return full - full.max(axis=1, keepdims=True)

    def run(self, colors: np.ndarray, sweeps: int, rng: np.random.Generator) -> None:
        """Apply ``sweeps`` passes over the color classes to ``colors`` in place."""
        R = colors.shape[1]
        for _ in range(sweeps):
            for cls, nbrs in self.blocks:
                unis = rng.random((R, cls.shape[0])).T  # one uniform per (row, vertex)
                mask = np.bitwise_and.reduce(self.nbr_bits.take(colors[nbrs], axis=0), axis=1)
                cums, targets = self._cumulative(mask, unis)
                new = np.zeros(unis.shape, dtype=self.dtype)
                for cum in cums:
                    new += cum < targets
                colors[cls] = new

    def _cumulative(self, mask: np.ndarray, unis: np.ndarray):
        """Cumulative weights of colors 0..q-2 at each (vertex, row) of a class
        update, one (k, R) array per color, and the draw targets they are
        compared against: the new color is the number of entries below it."""
        if self.table is not None:
            key = self.group_offset + mask[..., 0]
            if mask.shape[-1] > 1:
                key += mask[..., 1].astype(np.intp) << 8
            return (col.take(key) for col in self.table), unis
        q, lw = self.q, self.log_w

        def allowed(s):
            return (mask[..., s >> 3] >> (s & 7)) & 1 == 1

        # shift by the largest allowed log-weight so no allowed color underflows
        top = np.full(unis.shape, -np.inf)
        for s in range(q):
            np.maximum(top, np.where(allowed(s), lw[:, s], -np.inf), out=top)

        def weight(s):
            return np.exp(np.where(allowed(s), lw[:, s] - top, -np.inf))

        total = sum(weight(s) for s in range(q))
        return itertools.accumulate(weight(s) for s in range(q - 1)), unis * total


# ---------------------------------------------------------------------------
# Chains and sampling entry points
# ---------------------------------------------------------------------------


class Chain:
    """Single-owner mutable heat-bath chain over one model.

    The current configuration is valid after every step, and the triple
    (model, seed, sweeps_done) determines the state bit-for-bit.
    """

    def __init__(self, model: Model, seed: int = 0, start=None):
        self.model = model
        if start is None:
            start = find_valid_configuration(model.graph, model.h, seed=seed)
        start = require_valid(start, model.graph, model.h)
        self._engine = _Engine(model, None, 1)
        self._colors = np.append(start, model.q).astype(self._engine.dtype)[:, None]
        self._rng = np.random.default_rng(seed)
        self.sweeps_done = 0

    @property
    def current(self) -> np.ndarray:
        return self._colors[:-1, 0].astype(np.int64)

    def sweep(self, count: int = 1) -> "Chain":
        """Perform ``count`` sweeps; each resamples every color class once."""
        if count < 0:
            raise ParameterError("sweep count must be nonnegative")
        self._engine.run(self._colors, count, self._rng)
        self.sweeps_done += count
        return self


def glauber_sweep(chain: Chain) -> Chain:
    """One sweep (every vertex resampled once, class by class); returns the same chain."""
    return chain.sweep(1)


def sample(model: Model, burn_in_sweeps: int | None = None, seed: int = 0) -> np.ndarray:
    """One configuration after burn-in from a fresh chain. Deterministic per seed."""
    if burn_in_sweeps is None:
        burn_in_sweeps = default_burn_in(model.n)
    return Chain(model, seed=seed).sweep(burn_in_sweeps).current


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
    if replicates < 0:
        raise ParameterError("replicates must be nonnegative")
    if burn_in_sweeps is None:
        burn_in_sweeps = default_burn_in(model.n)
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


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------


@dataclass
class ExactSummary:
    """Exact finite-model summary from full enumeration.

    ``states`` is the (S, n) array of all valid configurations in
    lexicographic order (in the smallest unsigned dtype that holds q) and
    ``probabilities`` their probabilities;
    ``state_probabilities`` maps each configuration (as a tuple) to its
    probability. ``expected_counts[r]`` and ``expected_unconstrained[r]`` are
    the exact means of the color counts and the allowed-at counts.
    """

    log_partition: float
    state_probabilities: dict[tuple[int, ...], float]
    expected_counts: np.ndarray
    expected_unconstrained: np.ndarray
    states: np.ndarray
    probabilities: np.ndarray


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
    ``counts @ beta_full``, by a shifted log-sum-exp."""
    log_w = counts @ beta_full
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
    allowed_counts = _allowed_sets(states, model.graph, model.h).sum(axis=1)
    table = dict(zip(map(tuple, states.tolist()), probs.tolist()))
    return ExactSummary(
        log_partition, table, probs @ counts, probs @ allowed_counts, states, probs
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
    (i, u, c, j): recoloring vertex u of state i to the allowed color c,
    other than its own, gives state j."""
    S, n = states.shape
    other = allowed.copy()
    other[np.arange(S)[:, None], np.arange(n), states] = False
    i, u, c = np.nonzero(other)
    rows = states[i]
    rows[np.arange(i.size), u] = c
    return i, u, c, _lookup(states, rows)


def tv_distance_empirical(
    model: Model, sweeps: int, replicates: int, seed: int = 0
) -> float:
    """Total-variation distance between the empirical law of independent
    chains (all started from one fixed configuration) and the exact law."""
    summary = enumerate_exact(model)
    start = find_valid_configuration(model.graph, model.h, seed=seed)
    draws = sample_many(model, replicates, burn_in_sweeps=sweeps, seed=seed, start=start)
    hits = np.bincount(_lookup(summary.states, draws), minlength=summary.states.shape[0])
    return 0.5 * float(np.abs(hits / replicates - summary.probabilities).sum())


def is_glauber_irreducible(model: Model, summary: ExactSummary | None = None) -> bool:
    """Check by explicit reachability that single-site moves connect the
    enumerated state space, searching breadth-first from the first state."""
    if summary is None:
        summary = enumerate_exact(model)
    states = summary.states
    i, _, _, j = _single_site_moves(states, _allowed_sets(states, model.graph, model.h))
    seen = np.arange(states.shape[0]) == 0
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
    if summary is None:
        summary = enumerate_exact(model)
    states, p = summary.states, summary.probabilities
    allowed = _allowed_sets(states, model.graph, model.h)
    law = _conditional_law(allowed, model.beta_full)  # (S, n, q)
    i, u, c, j = _single_site_moves(states, allowed)
    flow = p[i] * law[i, u, c]
    back = p[j] * law[j, u, states[i, u]]
    return float(np.abs(flow - back).max(initial=0.0)) / model.n
