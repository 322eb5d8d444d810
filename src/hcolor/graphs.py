"""Interaction graphs: representation, statistics, generators, and file I/O.

Graphs are simple and undirected on vertices ``0 .. n-1``, stored as
compressed sparse row (CSR) arrays and built only by ``Graph(n, edges)``. The
generators cover the standard sparse families (paths, cycles, grids,
random regular, sparse Erdos-Renyi) plus the two special families used by the
impossibility experiments: disjoint triangles glued to a short path, and a
small clique joined completely to a large independent part.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphFormatError, ParameterError

__all__ = [
    "Graph",
    "DegreeStats",
    "generate",
    "degree_stats",
    "neighborhood_disjoint_subset",
    "neighborhood_disjoint_size_bound",
    "connected_components",
    "induced_subgraph",
    "graph_to_json",
    "graph_from_json",
    "write_graph",
    "read_graph",
]


def _csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 (indptr, indices) of the distinct pair keys ``u * n + v``;
    repeats drop by sort and adjacent compare (``np.unique`` hashes, slower)."""
    keys = np.sort(keys)
    rows, indices = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


def _segments(indptr: np.ndarray, indices: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The CSR rows as Python tuples, for loops that visit one row at a time.

    Tuples, not lists: the garbage collector stops tracking tuples of ints,
    so one per vertex does not trigger repeated full collections."""
    flat, bounds = tuple(indices.tolist()), indptr.tolist()
    return tuple(flat[a:b] for a, b in zip(bounds[:-1], bounds[1:]))


def _rows(indptr: np.ndarray) -> np.ndarray:
    """The row (source vertex) of each CSR entry."""
    return np.repeat(np.arange(indptr.shape[0] - 1, dtype=np.int64), np.diff(indptr))


def _two_hop_csr(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row v merges the neighbors of v with the ends x != v of all walks v - w - x."""
    n = indptr.shape[0] - 1
    rows = _rows(indptr)
    hops = np.diff(indptr)[indices]  # walks continuing through each CSR entry
    starts = np.repeat(indptr[indices] - (np.cumsum(hops) - hops), hops)
    far = indices[starts + np.arange(starts.shape[0])]
    near = np.repeat(rows, hops)
    away = far != near
    return _csr(n, np.concatenate([rows * n + indices, near[away] * n + far[away]]))


class Graph:
    """Simple undirected graph on vertices ``0 .. n-1`` in CSR form.

    ``Graph(n, edges)`` takes (u, v) pairs, as a sequence or an (m, 2) array,
    in any order and orientation; repeats merge, and symmetry holds by
    construction. ``n < 1``, a pair out of range or a self-loop raise
    :class:`ParameterError`. Derived structures are cached and read-only.

    Attributes
    ----------
    n : int
        Number of vertices (>= 1).
    indptr, indices : np.ndarray
        Read-only int64 CSR arrays: the neighbors of ``u`` are
        ``indices[indptr[u]:indptr[u + 1]]``, in increasing order.
    """

    def __init__(self, n: int, edges: Sequence[tuple[int, int]] | np.ndarray = ()) -> None:
        if n < 1:
            raise ParameterError(f"graph needs at least one vertex, got n={n}")
        pairs = np.asarray(edges, dtype=np.int64)
        pairs = pairs.reshape(0, 2) if pairs.size == 0 else pairs
        if pairs.shape[1:] != (2,):
            raise ParameterError("edges must be (u, v) pairs")
        outside = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)]
        if outside.size:
            raise ParameterError(f"edge {tuple(outside[0].tolist())} out of range for n={n}")
        u, v = pairs.T
        loops = u[u == v]
        if loops.size:
            raise ParameterError(f"self-loop at vertex {loops[0]}")
        self.n = int(n)
        self.indptr, self.indices = _csr(self.n, np.concatenate([u * n + v, v * n + u]))

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        eu, ev = self.edge_endpoints
        return list(zip(eu.tolist(), ev.tolist()))

    def edge_count(self) -> int:
        return self.indices.shape[0] // 2

    def max_degree(self) -> int:
        return int(self.degrees().max())

    @cached_property
    def padded_adjacency(self) -> np.ndarray:
        """(n, max(max_degree, 1)) array of neighbor indices, padded with the
        sentinel n.

        The sentinel lets vectorized code treat every vertex as having the
        same degree, even on an edgeless graph; callers pair it with a virtual
        always-compatible color. Built once per graph and cached; read-only.
        """
        pad = np.full((self.n, max(self.max_degree(), 1)), self.n, dtype=np.int64)
        pad[np.arange(pad.shape[1]) < self.degrees()[:, None]] = self.indices
        pad.setflags(write=False)
        return pad

    @cached_property
    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (u, v) of all edges with u < v, in the order of ``edges()``.

        Computed once per graph and cached; the arrays are read-only.
        """
        rows = _rows(self.indptr)
        upper = rows < self.indices
        eu, ev = rows[upper], self.indices[upper]
        eu.setflags(write=False)
        ev.setflags(write=False)
        return eu, ev

    @cached_property
    def lower_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """``lower_neighbors[u]`` holds the neighbors of u below u, ascending.

        Plain Python tuples, built once per graph and cached, for the loops
        that must visit vertices one at a time in index order.
        """
        rows = _rows(self.indptr)
        below = self.indices < rows
        counts = np.bincount(rows[below], minlength=self.n)
        return _segments(np.concatenate([[0], np.cumsum(counts)]), self.indices[below])

    @cached_property
    def two_hop(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR (indptr, indices) of the vertices at distance exactly
        1 or 2 from each vertex, ascending; built once per graph and cached."""
        return _two_hop_csr(self.indptr, self.indices)

    @cached_property
    def color_classes(self) -> tuple[np.ndarray, ...]:
        """Classes of a greedy proper coloring, each an ascending vertex array.

        Vertices are colored in index order, each with the smallest class
        index that none of its lower-numbered neighbors holds, so no edge lies
        inside a class. Computed once per graph in O(n + m) and cached; the
        arrays are read-only.
        """
        label = [0] * self.n
        for u, lower in enumerate(self.lower_neighbors):
            used = {label[v] for v in lower}
            c = 0
            while c in used:
                c += 1
            label[u] = c
        labels = np.array(label, dtype=np.int64)
        order = np.argsort(labels, kind="stable")
        classes = tuple(np.split(order, np.cumsum(np.bincount(labels))[:-1]))
        for cls in classes:
            cls.setflags(write=False)
        return classes


@dataclass(frozen=True)
class DegreeStats:
    """Exact degree summaries of a graph.

    ``avg_two_neighborhood`` averages, over vertices v, the number of vertices
    at distance exactly 1 or 2 from v.
    """

    avg_degree: Fraction
    avg_two_neighborhood: Fraction
    max_degree: int
    isolated_count: int


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _path(n: int) -> Graph:
    if n < 1:
        raise ParameterError("path requires n >= 1")
    return Graph(n, np.column_stack([np.arange(n - 1), np.arange(1, n)]))


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle requires n >= 3")
    return Graph(n, np.column_stack([np.arange(n), (np.arange(n) + 1) % n]))


def _grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ParameterError("grid requires rows >= 1 and cols >= 1")
    ids = np.arange(rows * cols).reshape(rows, cols)
    across = np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
    down = np.column_stack([ids[:-1].ravel(), ids[1:].ravel()])
    return Graph(rows * cols, np.concatenate([across, down]))


def _complete(n: int) -> Graph:
    if n < 1:
        raise ParameterError("complete requires n >= 1")
    return Graph(n, np.column_stack(np.triu_indices(n, 1)))


def _star(leaves: int) -> Graph:
    if leaves < 0:
        raise ParameterError("star requires leaves >= 0")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _random_regular(n: int, d: int, rng: np.random.Generator, max_tries: int = 2000) -> Graph:
    if d < 0 or d >= n:
        raise ParameterError("random_regular requires 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ParameterError("random_regular requires n*d even")
    if d == 0:
        return Graph(n)
    # Configuration model with whole-sample rejection keeps the graph uniform
    # over simple d-regular graphs.
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        g = Graph(n, pairs)
        if g.edge_count() == pairs.shape[0]:  # no pair repeated
            return g
    raise ParameterError(f"failed to sample a simple {d}-regular graph on {n} vertices")


def _erdos_renyi(n: int, c: float, rng: np.random.Generator) -> Graph:
    if n < 1:
        raise ParameterError("erdos_renyi requires n >= 1")
    if not 0 <= c < math.inf:
        raise ParameterError("erdos_renyi requires a finite c >= 0")
    p = min(c / n, 1.0)
    pairs = n * (n - 1) // 2
    if pairs == 0 or p == 0:
        return Graph(n)
    # Geometric edge skipping (Batagelj & Brandes 2005): the gaps between
    # successive present pairs, in the order (1,0), (2,0), (2,1), (3,0), ...,
    # are i.i.d. geometric, so the draw costs O(n + m) instead of O(n^2).
    # A gap past the last pair ends the draw, so gaps are clipped there: numpy
    # saturates them at 2^63 - 1 for tiny p, and their sum would overflow.
    chunk = int(p * pairs + 5 * math.sqrt(p * pairs)) + 16
    gaps = np.empty(0, dtype=np.int64)
    while gaps.sum() <= pairs:
        gaps = np.concatenate([gaps, np.minimum(rng.geometric(p, size=chunk), pairs + 1)])
    index = np.cumsum(gaps) - 1
    index = index[index < pairs]
    # pair index k is (v, w) with v (v - 1) / 2 <= k < v (v + 1) / 2 and w < v
    v = ((1 + np.sqrt(1 + 8 * index.astype(np.float64))) // 2).astype(np.int64)
    v -= v * (v - 1) // 2 > index
    v += v * (v + 1) // 2 <= index
    w = index - v * (v - 1) // 2
    return Graph(n, np.column_stack([v, w]))


def _disjoint_union(graphs: Sequence[Graph]) -> Graph:
    if not graphs:
        raise ParameterError("disjoint_union requires at least one part")
    offsets = np.cumsum([0] + [g.n for g in graphs])
    edges = [np.column_stack(g.edge_endpoints) + off for g, off in zip(graphs, offsets)]
    return Graph(int(offsets[-1]), np.concatenate(edges))


def _triangles_plus_path(num_triangles: int, path_len: int) -> Graph:
    """``num_triangles`` disjoint triangles followed by a path on ``path_len`` vertices."""
    if num_triangles < 0 or path_len < 0 or num_triangles + path_len == 0:
        raise ParameterError("triangles_plus_path requires N >= 0, K >= 0, N + K >= 1")
    edges = []
    for t in range(num_triangles):
        a = 3 * t
        edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
    base = 3 * num_triangles
    edges += [(base + i, base + i + 1) for i in range(path_len - 1)]
    return Graph(base + path_len, edges)


def _clique_bipartite(q: int, big_side: int) -> Graph:
    """Clique on q-1 vertices joined completely to an independent set of size N.

    Vertices 0 .. q-2 form the clique; vertices q-1 .. q-2+N form the large
    independent part.
    """
    if q < 2:
        raise ParameterError("clique_bipartite requires q >= 2")
    if big_side < 1:
        raise ParameterError("clique_bipartite requires N >= 1")
    k = q - 1
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(u, k + j) for u in range(k) for j in range(big_side)]
    return Graph(k + big_side, edges)


def _integer(params: dict, key: str) -> int:
    """``params[key]``, which must be a Python or numpy integer and not a bool:
    a size is never silently truncated."""
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"parameter {key!r} must be an integer, got {value!r}")
    return int(value)


def _real(params: dict, key: str) -> float:
    """``params[key]``, which must be a Python or numpy real number and not a bool."""
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"parameter {key!r} must be a number, got {value!r}")
    return float(value)


def generate(kind: str, params: dict, seed: int = 0) -> Graph:
    """Build a graph of the given kind deterministically from (params, seed).

    Supported kinds and parameters::

        path(n)                   cycle(n)               grid(rows, cols)
        complete(n)               star(leaves)           random_regular(n, d)
        erdos_renyi(n, c)         disjoint_union(parts)  triangles_plus_path(N, K)
        clique_bipartite(q, N)

    Sizes (``n``, ``d``, ``rows``, ``cols``, ``leaves``, ``N``, ``K``, ``q``)
    must be integers, not bools; ``erdos_renyi`` uses edge probability
    ``c / n`` for a finite ``c >= 0``. ``disjoint_union`` takes ``parts`` as a
    list of ``{"kind": ..., "params": ...}`` sub-specs.
    """
    rng = np.random.default_rng(seed)
    try:
        if kind == "path":
            return _path(_integer(params, "n"))
        if kind == "cycle":
            return _cycle(_integer(params, "n"))
        if kind == "grid":
            return _grid(_integer(params, "rows"), _integer(params, "cols"))
        if kind == "complete":
            return _complete(_integer(params, "n"))
        if kind == "star":
            return _star(_integer(params, "leaves"))
        if kind == "random_regular":
            return _random_regular(_integer(params, "n"), _integer(params, "d"), rng)
        if kind == "erdos_renyi":
            return _erdos_renyi(_integer(params, "n"), _real(params, "c"), rng)
        if kind == "disjoint_union":
            parts = [
                generate(p["kind"], p.get("params", {}), seed=seed * 1009 + i + 1)
                for i, p in enumerate(params["parts"])
            ]
            return _disjoint_union(parts)
        if kind == "triangles_plus_path":
            return _triangles_plus_path(_integer(params, "N"), _integer(params, "K"))
        if kind == "clique_bipartite":
            return _clique_bipartite(_integer(params, "q"), _integer(params, "N"))
    except ParameterError:
        raise
    except KeyError as exc:
        raise ParameterError(f"missing parameter {exc} for graph kind '{kind}'") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"bad parameter for graph kind '{kind}': {exc}") from exc
    raise ParameterError(f"unknown graph kind '{kind}'")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def degree_stats(g: Graph) -> DegreeStats:
    """Exact average degree, average 2-neighborhood size, max degree, isolated count."""
    return DegreeStats(
        avg_degree=Fraction(g.indices.shape[0], g.n),
        avg_two_neighborhood=Fraction(g.two_hop[1].shape[0], g.n),
        max_degree=g.max_degree(),
        isolated_count=int(np.count_nonzero(g.degrees() == 0)),
    )


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, ordered by minimum vertex."""
    adjacency = _segments(g.indptr, g.indices)
    seen = [False] * g.n
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        comp = [root]
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph on the given vertices, relabeled 0..len(vertices)-1 in list order."""
    index = np.full(g.n, -1, dtype=np.int64)
    index[list(vertices)] = np.arange(len(vertices))
    pairs = index[np.column_stack(g.edge_endpoints)]
    return Graph(len(vertices), pairs[(pairs >= 0).all(axis=1)])


# ---------------------------------------------------------------------------
# Neighborhood-disjoint subsets
# ---------------------------------------------------------------------------

# random orderings tried by neighborhood_disjoint_subset before the backstop
_MAX_PERMUTATIONS = 64


def neighborhood_disjoint_size_bound(g: Graph) -> Fraction:
    """Guaranteed size n / (4 (1 + avg 2-neighborhood)) for |w| >= n/2, exact."""
    avg2 = degree_stats(g).avg_two_neighborhood
    return Fraction(g.n) / (4 * (1 + avg2))


def _greedy_disjoint(g: Graph, w: np.ndarray) -> list[int]:
    # Max-degree-last scan: low-degree vertices exclude fewer later candidates.
    two_hop = _segments(*g.two_hop)
    chosen: list[int] = []
    blocked: set[int] = set()
    for v in w[np.lexsort((w, g.degrees()[w]))].tolist():
        if v not in blocked:
            chosen.append(v)
            blocked.add(v)
            blocked.update(two_hop[v])
    return sorted(chosen)


def neighborhood_disjoint_subset(g: Graph, w: Iterable[int], seed: int = 0) -> list[int]:
    """Select A within w such that distinct members have disjoint neighborhoods.

    A random ordering of all vertices keeps each candidate from ``w`` that
    precedes every vertex at distance 1 or 2 from it. The best of up to 64
    orderings is compared with a deterministic max-degree-last greedy pass and
    the larger set returned. For ``|w| >= n/2`` its size reaches
    ``n / (4 (1 + avg 2-neighborhood))``: the ordering does in expectation,
    and retries plus the greedy backstop make it reliable.
    """
    wl = np.array(sorted(set(int(v) for v in w)), dtype=np.int64)
    if wl.size and (wl[0] < 0 or wl[-1] >= g.n):
        raise ParameterError("subset w contains vertices outside the graph")
    if not wl.size:
        return []
    indptr, hop = g.two_hop
    rows = _rows(indptr)
    target = neighborhood_disjoint_size_bound(g) if 2 * wl.size >= g.n else math.inf
    rng = np.random.default_rng(seed)
    best = wl[:0]
    pos = np.empty(g.n, dtype=np.int64)
    for _ in range(_MAX_PERMUTATIONS):
        pos[rng.permutation(g.n)] = np.arange(g.n)
        preceded = np.zeros(g.n, dtype=bool)
        preceded[rows[pos[hop] < pos[rows]]] = True
        kept = wl[~preceded[wl]]
        if kept.size > best.size:
            best = kept
        if best.size >= target:
            break
    greedy = _greedy_disjoint(g, wl)
    return greedy if len(greedy) > best.size else best.tolist()


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def _parse_json(text: str):
    """``json.loads(text)``; malformed or too deeply nested JSON raises
    :class:`GraphFormatError`. The readers of every file format use it."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GraphFormatError(f"not valid JSON: nested too deeply ({exc})") from exc


def _write_json(path, payload, meta: dict | None = None) -> None:
    """Write an artifact: ``payload``, with a "meta" key added when ``meta``
    is given, as sorted-key JSON indented by 2 plus a final newline. Every
    JSON artifact with a "meta" key is written by it."""
    if meta is not None:
        payload = {**payload, "meta": meta}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _graph_payload(g: Graph) -> dict:
    return {"n": g.n, "edges": np.column_stack(g.edge_endpoints).tolist()}


def graph_to_json(g: Graph) -> str:
    """Serialize as {"n": ..., "edges": [[u, v], ...]} with u < v, sorted."""
    return json.dumps(_graph_payload(g), sort_keys=True)


def graph_from_json(text: str) -> Graph:
    """Parse and validate the graph file format; rejects malformed input."""
    payload = _parse_json(text)
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise GraphFormatError('graph JSON must be an object with "n" and "edges"')
    n = payload["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise GraphFormatError('"n" must be a positive integer')
    edges = payload["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be a list of [u, v] pairs')
    try:
        pairs = np.array(edges if edges else np.zeros((0, 2), dtype=np.int64))
        if pairs.dtype.kind != "i" or pairs.shape[1:] != (2,):
            raise ValueError
        if bool in set(map(type, itertools.chain.from_iterable(edges))):
            raise ValueError  # numpy reads true and false next to integers as 1 and 0
    except ValueError as exc:  # non-integer entries, ragged rows or other shapes
        raise GraphFormatError('"edges" must be a list of [u, v] integer pairs') from exc
    unordered = pairs[pairs[:, 0] >= pairs[:, 1]]
    if unordered.size:
        raise GraphFormatError(f"edge {unordered[0].tolist()} must satisfy u < v")
    try:
        g = Graph(n, pairs)
    except ParameterError as exc:
        raise GraphFormatError(str(exc)) from exc
    if g.edge_count() != pairs.shape[0]:
        raise GraphFormatError(f"{pairs.shape[0] - g.edge_count()} duplicate edge(s)")
    return g


def write_graph(path, g: Graph, meta: dict | None = None) -> None:
    """Write the graph file; an optional "meta" key carries provenance and is
    ignored by readers."""
    _write_json(path, _graph_payload(g), meta)


def read_graph(path) -> Graph:
    with open(path) as fh:
        return graph_from_json(fh.read())
