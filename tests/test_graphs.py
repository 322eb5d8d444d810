"""Graph representation, generators, statistics, disjoint subsets, file format."""
from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hcolor.errors import GraphFormatError, ParameterError
from hcolor.graphs import (
    Graph,
    connected_components,
    degree_stats,
    generate,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    neighborhood_disjoint_size_bound,
    neighborhood_disjoint_subset,
    read_graph,
    two_neighborhood_sets,
    write_graph,
)

ALL_KINDS = [
    ("path", {"n": 7}),
    ("cycle", {"n": 5}),
    ("grid", {"rows": 3, "cols": 4}),
    ("complete", {"n": 4}),
    ("star", {"leaves": 5}),
    ("random_regular", {"n": 10, "d": 3}),
    ("erdos_renyi", {"n": 30, "c": 2.0}),
    ("triangles_plus_path", {"N": 2, "K": 3}),
    ("clique_bipartite", {"q": 3, "N": 5}),
    (
        "disjoint_union",
        {"parts": [{"kind": "cycle", "params": {"n": 3}}, {"kind": "path", "params": {"n": 2}}]},
    ),
]


def test_invariants_reject_bad_adjacency():
    with pytest.raises(ParameterError):
        Graph(2, ((1,), ()))  # asymmetric
    with pytest.raises(ParameterError):
        Graph(2, ((0, 1), (0,)))  # self-loop
    with pytest.raises(ParameterError):
        Graph.from_edges(2, [(0, 2)])  # out of range
    with pytest.raises(ParameterError):
        Graph(0, ())


def test_cycle_five_all_degree_two():
    g = generate("cycle", {"n": 5})
    assert g.n == 5
    assert all(g.degree(u) == 2 for u in range(5))


def test_triangles_plus_path_layout():
    g = generate("triangles_plus_path", {"N": 2, "K": 3})
    assert g.n == 9
    comps = connected_components(g)
    sizes = sorted(len(c) for c in comps)
    assert sizes == [3, 3, 3]
    # two components are triangles, one is a path
    triangle_count = sum(1 for c in comps if induced_subgraph(g, c).edge_count() == 3)
    path_count = sum(1 for c in comps if induced_subgraph(g, c).edge_count() == 2)
    assert (triangle_count, path_count) == (2, 1)


def test_clique_bipartite_edge_count():
    g = generate("clique_bipartite", {"q": 3, "N": 5})
    assert g.n == 7
    assert g.edge_count() == 1 + 10
    # clique side vertices see everything
    assert g.degree(0) == 6 and g.degree(1) == 6
    assert all(g.degree(v) == 2 for v in range(2, 7))


def test_generate_is_seed_deterministic():
    for kind, params in ALL_KINDS:
        a = generate(kind, params, seed=42)
        b = generate(kind, params, seed=42)
        assert a.adjacency == b.adjacency, kind


def test_generate_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        generate("random_regular", {"n": 5, "d": 3})  # odd n*d
    with pytest.raises(ParameterError):
        generate("cycle", {"n": 2})
    with pytest.raises(ParameterError):
        generate("nonesuch", {})
    with pytest.raises(ParameterError):
        generate("path", {})


def test_random_regular_is_regular():
    g = generate("random_regular", {"n": 20, "d": 3}, seed=7)
    assert all(g.degree(u) == 3 for u in range(20))


def test_degree_stats_path10():
    # endpoints reach 2 vertices within distance 2, their neighbors 3, interior 4
    st = degree_stats(generate("path", {"n": 10}))
    assert st.avg_two_neighborhood == Fraction(34, 10)
    assert st.avg_degree == Fraction(18, 10)
    assert st.max_degree == 2 and st.isolated_count == 0


def test_degree_stats_complete4_and_edgeless():
    st = degree_stats(generate("complete", {"n": 4}))
    assert st.avg_degree == 3 and st.avg_two_neighborhood == 3
    edgeless = Graph(7, tuple(() for _ in range(7)))
    st2 = degree_stats(edgeless)
    assert st2.avg_degree == 0 and st2.isolated_count == 7


def test_two_neighborhood_counts_distance_one_and_two():
    g = generate("path", {"n": 5})
    sizes = [len(s) for s in two_neighborhood_sets(g)]
    assert sizes == [2, 3, 4, 3, 2]


def _check_disjoint(g: Graph, subset):
    seen = set()
    for v in subset:
        nb = set(g.adjacency[v])
        assert not (nb & seen), f"overlapping neighborhoods in {subset}"
        seen |= nb


def test_disjoint_subset_path10():
    g = generate("path", {"n": 10})
    a = neighborhood_disjoint_subset(g, range(10), seed=0)
    _check_disjoint(g, a)
    assert len(a) >= neighborhood_disjoint_size_bound(g)


def test_disjoint_subset_edgeless_returns_all():
    g = Graph(6, tuple(() for _ in range(6)))
    assert neighborhood_disjoint_subset(g, range(6), seed=1) == list(range(6))


def test_disjoint_subset_complete_graph_single_vertex():
    g = generate("complete", {"n": 5})
    a = neighborhood_disjoint_subset(g, range(5), seed=3)
    assert len(a) == 1


def test_disjoint_subset_empty_input():
    g = generate("path", {"n": 4})
    assert neighborhood_disjoint_subset(g, [], seed=0) == []


def test_disjoint_subset_greedy_strategy():
    g = generate("path", {"n": 10})
    a = neighborhood_disjoint_subset(g, range(10), strategy="greedy")
    _check_disjoint(g, a)
    b = neighborhood_disjoint_subset(g, range(10), strategy="greedy")
    assert a == b  # deterministic


def test_disjoint_subset_respects_w():
    g = generate("cycle", {"n": 12})
    w = [0, 1, 2, 6, 7, 8]
    a = neighborhood_disjoint_subset(g, w, seed=5)
    assert set(a) <= set(w)
    _check_disjoint(g, a)


def test_disjoint_subset_bound_on_random_graphs():
    # smaller version of the acceptance sweep, mixed families
    rng = np.random.default_rng(0)
    for trial in range(25):
        n = int(rng.integers(10, 80))
        c = float(rng.uniform(0.5, 3.0))
        g = generate("erdos_renyi", {"n": n, "c": c}, seed=trial)
        w = list(rng.choice(n, size=max(n // 2 + 1, 1), replace=False))
        a = neighborhood_disjoint_subset(g, w, seed=trial)
        _check_disjoint(g, a)
        assert len(a) >= neighborhood_disjoint_size_bound(g)


def test_erdos_renyi_mean_degree():
    n, c, seeds = 100, 3.0, 50
    mean_degs = []
    for s in range(seeds):
        g = generate("erdos_renyi", {"n": n, "c": c}, seed=s)
        mean_degs.append(2 * g.edge_count() / n)
    p = c / n
    expected = (n - 1) * p
    # variance of per-graph mean degree: (2/n)^2 * Var(Binomial(C(n,2), p))
    var = (2 / n) ** 2 * (n * (n - 1) / 2) * p * (1 - p)
    se = (var / seeds) ** 0.5
    assert abs(np.mean(mean_degs) - expected) <= 3 * se


def test_erdos_renyi_is_sparse_in_memory():
    # geometric edge skipping never materializes the n(n-1)/2 vertex pairs
    n, c = 20000, 2.0
    tracemalloc.start()
    try:
        g = generate("erdos_renyi", {"n": n, "c": c}, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    p = c / n
    se = 2 / n * (n * (n - 1) / 2 * p * (1 - p)) ** 0.5
    assert abs(2 * g.edge_count() / n - c * (n - 1) / n) <= 5 * se


def test_erdos_renyi_pairs_are_independent_coin_flips():
    # every one of the C(6, 2) pairs appears with probability c / n
    n, c, seeds = 6, 3.0, 2000
    hits = np.zeros((n, n))
    for s in range(seeds):
        for u, v in generate("erdos_renyi", {"n": n, "c": c}, seed=s).edges():
            hits[u, v] += 1
    p = c / n
    freq = hits[np.triu_indices(n, k=1)] / seeds
    assert np.all(np.abs(freq - p) <= 5 * (p * (1 - p) / seeds) ** 0.5)
    assert generate("erdos_renyi", {"n": n, "c": n}, seed=0).edge_count() == n * (n - 1) // 2
    assert generate("erdos_renyi", {"n": n, "c": 0}, seed=0).edge_count() == 0


def test_round_trip_all_kinds(tmp_path):
    for i, (kind, params) in enumerate(ALL_KINDS):
        g = generate(kind, params, seed=i)
        assert graph_from_json(graph_to_json(g)).adjacency == g.adjacency
        path = tmp_path / f"{kind}.json"
        write_graph(path, g, meta={"kind": kind})
        assert read_graph(path).adjacency == g.adjacency


def test_reader_rejects_malformed():
    with pytest.raises(GraphFormatError):
        graph_from_json('{"n": 3}')
    with pytest.raises(GraphFormatError):
        graph_from_json('{"n": 3, "edges": [[0, 0]]}')
    with pytest.raises(GraphFormatError):
        graph_from_json('{"n": 3, "edges": [[2, 1]]}')
    with pytest.raises(GraphFormatError):
        graph_from_json('{"n": 3, "edges": [[0, 5]]}')
    with pytest.raises(GraphFormatError):
        graph_from_json('{"n": 3, "edges": [[0, 1], [0, 1]]}')
    with pytest.raises(GraphFormatError):
        graph_from_json("not json")


def test_writer_emits_exact_shape():
    g = generate("path", {"n": 3})
    assert graph_to_json(g) == '{"edges": [[0, 1], [1, 2]], "n": 3}'
