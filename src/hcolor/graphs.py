"""Interaction graphs: representation, statistics, generators, and file I/O.

Graphs are simple and undirected, with vertices labeled ``0 .. n-1``. The
generators cover the standard sparse families (paths, cycles, grids, random
regular, sparse Erdos-Renyi) plus the two special families used by the
impossibility experiments: disjoint triangles glued to a short path, and a
small clique joined completely to a large independent part.
"""
from __future__ import annotations

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
    "two_neighborhood_sets",
    "neighborhood_disjoint_subset",
    "neighborhood_disjoint_size_bound",
    "connected_components",
    "induced_subgraph",
    "graph_to_json",
    "graph_from_json",
    "write_graph",
    "read_graph",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph given by per-vertex sorted neighbor tuples.

    Attributes
    ----------
    n : int
        Number of vertices (>= 1).
    adjacency : tuple[tuple[int, ...], ...]
        ``adjacency[u]`` lists the neighbors of ``u`` in increasing order.
        The relation is symmetric, loop-free and duplicate-free; violations
        raise :class:`ParameterError` at construction.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"graph needs at least one vertex, got n={self.n}")
        if len(self.adjacency) != self.n:
            raise ParameterError("adjacency length does not match vertex count")
        neighbor_sets = []
        for u, nbrs in enumerate(self.adjacency):
            seen = set(nbrs)
            if len(seen) != len(nbrs):
                raise ParameterError(f"duplicate neighbor entries at vertex {u}")
            if u in seen:
                raise ParameterError(f"self-loop at vertex {u}")
            if nbrs and (min(nbrs) < 0 or max(nbrs) >= self.n):
                raise ParameterError(f"neighbor index out of range at vertex {u}")
            if tuple(sorted(nbrs)) != tuple(nbrs):
                raise ParameterError(f"neighbors of vertex {u} are not sorted")
            neighbor_sets.append(seen)
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u not in neighbor_sets[v]:
                    raise ParameterError(f"asymmetric edge ({u}, {v})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; pairs may come in any order."""
        nbrs: list[set[int]] = [set() for _ in range(max(n, 0))]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs))

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self.adjacency[u]

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self.adjacency], dtype=np.int64)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def padded_adjacency(self) -> np.ndarray:
        """(n, max_degree) array of neighbor indices, padded with the sentinel n.

        The sentinel row lets vectorized code treat every vertex as having the
        same degree; callers pair it with a virtual always-compatible color.
        Built once per graph and cached; the array is read-only.
        """
        return self._padded_adjacency

    @cached_property
    def _padded_adjacency(self) -> np.ndarray:
        dmax = self.max_degree()
        pad = np.full((self.n, dmax), self.n, dtype=np.int64)
        for u, nbrs in enumerate(self.adjacency):
            pad[u, : len(nbrs)] = nbrs
        pad.setflags(write=False)
        return pad

    @cached_property
    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (u, v) of all edges with u < v, in the order of ``edges()``.

        Computed once per graph and cached; the arrays are read-only.
        """
        pad = self.padded_adjacency()
        u = np.broadcast_to(np.arange(self.n)[:, None], pad.shape)
        keep = (u < pad) & (pad < self.n)
        eu, ev = u[keep], pad[keep]
        eu.setflags(write=False)
        ev.setflags(write=False)
        return eu, ev

    @cached_property
    def color_classes(self) -> tuple[np.ndarray, ...]:
        """Classes of a greedy proper coloring, each an ascending vertex array.

        Vertices are colored in index order, each with the smallest class
        index that none of its lower-numbered neighbors holds, so no edge lies
        inside a class. Computed once per graph in O(n + m) and cached; the
        arrays are read-only.
        """
        label = [0] * self.n
        for u, nbrs in enumerate(self.adjacency):
            used = {label[v] for v in nbrs if v < u}
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
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle requires n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ParameterError("grid requires rows >= 1 and cols >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return Graph.from_edges(rows * cols, edges)


def _complete(n: int) -> Graph:
    if n < 1:
        raise ParameterError("complete requires n >= 1")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _star(leaves: int) -> Graph:
    if leaves < 0:
        raise ParameterError("star requires leaves >= 0")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def _random_regular(n: int, d: int, rng: np.random.Generator, max_tries: int = 2000) -> Graph:
    if d < 0 or d >= n:
        raise ParameterError("random_regular requires 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ParameterError("random_regular requires n*d even")
    if d == 0:
        return Graph(n, tuple(() for _ in range(n)))
    # Configuration model with whole-sample rejection keeps the graph uniform
    # over simple d-regular graphs.
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        keys = lo * n + hi
        if len(np.unique(keys)) != len(keys):
            continue
        return Graph.from_edges(n, [(int(a), int(b)) for a, b in zip(lo, hi)])
    raise ParameterError(f"failed to sample a simple {d}-regular graph on {n} vertices")


def _erdos_renyi(n: int, c: float, rng: np.random.Generator) -> Graph:
    if n < 1:
        raise ParameterError("erdos_renyi requires n >= 1")
    if c < 0:
        raise ParameterError("erdos_renyi requires c >= 0")
    p = min(c / n, 1.0)
    pairs = n * (n - 1) // 2
    if pairs == 0 or p == 0:
        return Graph.from_edges(n, [])
    # Geometric edge skipping (Batagelj & Brandes 2005): the gaps between
    # successive present pairs, in the order (1,0), (2,0), (2,1), (3,0), ...,
    # are i.i.d. geometric, so the draw costs O(n + m) instead of O(n^2).
    chunk = int(p * pairs + 5 * math.sqrt(p * pairs)) + 16
    gaps = rng.geometric(p, size=chunk)
    while gaps.sum() <= pairs:
        gaps = np.concatenate([gaps, rng.geometric(p, size=chunk)])
    index = np.cumsum(gaps) - 1
    index = index[index < pairs]
    # pair index k is (v, w) with v (v - 1) / 2 <= k < v (v + 1) / 2 and w < v
    v = ((1 + np.sqrt(1 + 8 * index.astype(np.float64))) // 2).astype(np.int64)
    v -= v * (v - 1) // 2 > index
    v += v * (v + 1) // 2 <= index
    w = index - v * (v - 1) // 2
    return Graph.from_edges(n, zip(v.tolist(), w.tolist()))


def _disjoint_union(graphs: Sequence[Graph]) -> Graph:
    if not graphs:
        raise ParameterError("disjoint_union requires at least one part")
    offset = 0
    edges: list[tuple[int, int]] = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph.from_edges(offset, edges)


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
    return Graph.from_edges(base + path_len, edges)


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
    return Graph.from_edges(k + big_side, edges)


def generate(kind: str, params: dict, seed: int = 0) -> Graph:
    """Build a graph of the given kind deterministically from (params, seed).

    Supported kinds and parameters::

        path(n)                   cycle(n)               grid(rows, cols)
        complete(n)               star(leaves)           random_regular(n, d)
        erdos_renyi(n, c)         disjoint_union(parts)  triangles_plus_path(N, K)
        clique_bipartite(q, N)

    ``erdos_renyi`` uses edge probability ``c / n``. ``disjoint_union`` takes
    ``parts`` as a list of ``{"kind": ..., "params": ...}`` sub-specs.
    """
    rng = np.random.default_rng(seed)
    try:
        if kind == "path":
            return _path(int(params["n"]))
        if kind == "cycle":
            return _cycle(int(params["n"]))
        if kind == "grid":
            return _grid(int(params["rows"]), int(params["cols"]))
        if kind == "complete":
            return _complete(int(params["n"]))
        if kind == "star":
            return _star(int(params["leaves"]))
        if kind == "random_regular":
            return _random_regular(int(params["n"]), int(params["d"]), rng)
        if kind == "erdos_renyi":
            return _erdos_renyi(int(params["n"]), float(params["c"]), rng)
        if kind == "disjoint_union":
            parts = [
                generate(p["kind"], p.get("params", {}), seed=seed * 1009 + i + 1)
                for i, p in enumerate(params["parts"])
            ]
            return _disjoint_union(parts)
        if kind == "triangles_plus_path":
            return _triangles_plus_path(int(params["N"]), int(params["K"]))
        if kind == "clique_bipartite":
            return _clique_bipartite(int(params["q"]), int(params["N"]))
    except KeyError as exc:
        raise ParameterError(f"missing parameter {exc} for graph kind '{kind}'") from exc
    raise ParameterError(f"unknown graph kind '{kind}'")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def two_neighborhood_sets(g: Graph) -> list[set[int]]:
    """For each vertex v, the set of vertices at distance exactly 1 or 2."""
    out = []
    for v in range(g.n):
        s: set[int] = set(g.adjacency[v])
        for w in g.adjacency[v]:
            s.update(g.adjacency[w])
        s.discard(v)
        out.append(s)
    return out


def degree_stats(g: Graph) -> DegreeStats:
    """Exact average degree, average 2-neighborhood size, max degree, isolated count."""
    degs = [g.degree(u) for u in range(g.n)]
    d2 = [len(s) for s in two_neighborhood_sets(g)]
    return DegreeStats(
        avg_degree=Fraction(sum(degs), g.n),
        avg_two_neighborhood=Fraction(sum(d2), g.n),
        max_degree=max(degs),
        isolated_count=sum(1 for d in degs if d == 0),
    )


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, ordered by minimum vertex."""
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
            for v in g.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph on the given vertices, relabeled 0..len(vertices)-1 in list order."""
    index = {v: i for i, v in enumerate(vertices)}
    edges = [
        (index[u], index[v])
        for u in vertices
        for v in g.adjacency[u]
        if u < v and v in index
    ]
    return Graph.from_edges(len(vertices), edges)


# ---------------------------------------------------------------------------
# Neighborhood-disjoint subsets
# ---------------------------------------------------------------------------


def neighborhood_disjoint_size_bound(g: Graph) -> Fraction:
    """Guaranteed size n / (4 (1 + avg 2-neighborhood)) for |w| >= n/2, exact."""
    avg2 = degree_stats(g).avg_two_neighborhood
    return Fraction(g.n) / (4 * (1 + avg2))


def _greedy_disjoint(w: list[int], two_hop: list[set[int]], degs: list[int]) -> list[int]:
    # Max-degree-last scan: low-degree vertices exclude fewer later candidates.
    order = sorted(w, key=lambda v: (degs[v], v))
    chosen: list[int] = []
    blocked: set[int] = set()
    for v in order:
        if v not in blocked:
            chosen.append(v)
            blocked.add(v)
            blocked.update(two_hop[v])
    return sorted(chosen)


def neighborhood_disjoint_subset(
    g: Graph,
    w: Iterable[int],
    seed: int = 0,
    strategy: str = "random-permutation",
    max_permutations: int = 64,
) -> list[int]:
    """Select A within w such that distinct members have disjoint neighborhoods.

    Strategies
    ----------
    ``"random-permutation"``
        Scan a uniformly random ordering of all vertices and keep a candidate
        from ``w`` exactly when no vertex at distance 1 or 2 from it appears
        earlier in the ordering. Up to ``max_permutations`` orderings are
        tried, keeping the best; a deterministic greedy pass also runs and the
        larger of the two sets is returned. Whenever ``|w| >= n/2`` the result
        size reaches ``n / (4 (1 + avg 2-neighborhood))`` in practice (the
        permutation scan achieves it in expectation; retries plus the greedy
        backstop make it reliable).
    ``"greedy"``
        Deterministic max-degree-last scan only.
    """
    wl = sorted(set(int(v) for v in w))
    if wl and (wl[0] < 0 or wl[-1] >= g.n):
        raise ParameterError("subset w contains vertices outside the graph")
    if not wl:
        return []
    two_hop = two_neighborhood_sets(g)
    degs = [g.degree(u) for u in range(g.n)]
    greedy = _greedy_disjoint(wl, two_hop, degs)
    if strategy == "greedy":
        return greedy
    if strategy != "random-permutation":
        raise ParameterError(f"unknown strategy '{strategy}'")

    target = None
    if 2 * len(wl) >= g.n:
        target = neighborhood_disjoint_size_bound(g)
    rng = np.random.default_rng(seed)
    best: list[int] = []
    for _ in range(max_permutations):
        pos = np.empty(g.n, dtype=np.int64)
        pos[rng.permutation(g.n)] = np.arange(g.n)
        kept = [v for v in wl if all(pos[x] > pos[v] for x in two_hop[v])]
        if len(kept) > len(best):
            best = kept
        if target is not None and len(best) >= target:
            break
    if len(greedy) > len(best):
        best = greedy
    return sorted(best)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def graph_to_json(g: Graph) -> str:
    """Serialize as {"n": ..., "edges": [[u, v], ...]} with u < v, sorted."""
    payload = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    return json.dumps(payload, sort_keys=True)


def graph_from_json(text: str) -> Graph:
    """Parse and validate the graph file format; rejects malformed input."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise GraphFormatError('graph JSON must be an object with "n" and "edges"')
    n = payload["n"]
    if not isinstance(n, int) or n < 1:
        raise GraphFormatError('"n" must be a positive integer')
    edges = payload["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be a list of [u, v] pairs')
    seen = set()
    cleaned = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, int) for x in e)):
            raise GraphFormatError(f"malformed edge entry {e!r}")
        u, v = e
        if u == v:
            raise GraphFormatError(f"self-loop [{u}, {v}] rejected")
        if u > v:
            raise GraphFormatError(f"edge [{u}, {v}] must satisfy u < v")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge [{u}, {v}] out of range for n={n}")
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge [{u}, {v}]")
        seen.add((u, v))
        cleaned.append((u, v))
    try:
        return Graph.from_edges(n, cleaned)
    except ParameterError as exc:
        raise GraphFormatError(str(exc)) from exc


def write_graph(path, g: Graph, meta: dict | None = None) -> None:
    """Write the graph file; an optional "meta" key carries provenance and is
    ignored by readers."""
    payload = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    if meta is not None:
        payload["meta"] = meta
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_graph(path) -> Graph:
    with open(path) as fh:
        return graph_from_json(fh.read())
