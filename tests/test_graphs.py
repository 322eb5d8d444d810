"""Graph representation, generators, statistics, disjoint subsets, file format."""
from __future__ import annotations

import hashlib
import json
import math
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
    write_graph,
)
from hcolor.model import Model, configuration_from_json, constraint_from_json, preset
from hcolor.sampler import sample

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
        Graph(2, [(0, 0)])  # self-loop
    with pytest.raises(ParameterError):
        Graph(2, [(0, 2)])  # out of range
    with pytest.raises(ParameterError):
        Graph(2, [(-1, 1)])
    with pytest.raises(ParameterError):
        Graph(3, [(0, 1, 2)])  # not a pair
    with pytest.raises(ParameterError):
        Graph(0)


def test_constructor_merges_pairs_into_symmetric_csr():
    g = Graph(4, [(2, 0), (0, 2), (1, 0), (3, 1), (0, 1)])
    assert g.indptr.tolist() == [0, 2, 4, 5, 6]
    assert g.indices.tolist() == [1, 2, 0, 3, 0, 1]
    assert g.edges() == [(0, 1), (0, 2), (1, 3)]
    assert g.neighbors(0).tolist() == [1, 2] and g.degree(3) == 1
    assert g.degrees().tolist() == [2, 2, 1, 1]
    assert (g.edge_count(), g.max_degree()) == (3, 2)
    assert [list(x) for x in g.lower_neighbors] == [[], [0], [0], [1]]
    for arr in (g.indptr, g.indices):
        assert arr.dtype == np.int64
        with pytest.raises(ValueError):
            arr[0] = 1


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
        assert graph_to_json(a) == graph_to_json(b), kind


def test_generate_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        generate("random_regular", {"n": 5, "d": 3})  # odd n*d
    with pytest.raises(ParameterError):
        generate("cycle", {"n": 2})
    with pytest.raises(ParameterError):
        generate("nonesuch", {})
    with pytest.raises(ParameterError):
        generate("path", {})


def test_generate_requires_integer_sizes():
    for kind, params in ALL_KINDS:
        expect = graph_to_json(generate(kind, params, seed=3))
        for key, value in params.items():
            if type(value) is not int:  # "c" and the parts of a union
                continue
            as_numpy = generate(kind, {**params, key: np.int64(value)}, seed=3)
            assert graph_to_json(as_numpy) == expect, (kind, key)
            for bad in [value + 0.7, float(value), True, np.float64(value), str(value), None]:
                with pytest.raises(ParameterError, match="integer"):
                    generate(kind, {**params, key: bad}, seed=3)
    # inside a disjoint union too
    with pytest.raises(ParameterError, match="integer"):
        generate("disjoint_union", {"parts": [{"kind": "cycle", "params": {"n": 3.7}}]})


def test_erdos_renyi_requires_a_finite_c():
    for bad in [math.inf, -math.inf, math.nan, np.float64(math.inf)]:
        with pytest.raises(ParameterError, match="finite"):
            generate("erdos_renyi", {"n": 10, "c": bad})
    for bad in [True, "2.0", None]:
        with pytest.raises(ParameterError, match="number"):
            generate("erdos_renyi", {"n": 10, "c": bad})
    expect = graph_to_json(generate("erdos_renyi", {"n": 10, "c": 2.0}, seed=1))
    for same in [2, np.float64(2.0), np.int64(2)]:
        assert graph_to_json(generate("erdos_renyi", {"n": 10, "c": same}, seed=1)) == expect


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
    edgeless = Graph(7)
    st2 = degree_stats(edgeless)
    assert st2.avg_degree == 0 and st2.isolated_count == 7


def test_two_neighborhood_counts_distance_one_and_two():
    g = generate("path", {"n": 5})
    indptr, _ = g.two_hop
    assert np.diff(indptr).tolist() == [2, 3, 4, 3, 2]


def _bfs_two_hop(g: Graph) -> list[set[int]]:
    """Vertices at distance 1 or 2 from each vertex, by breadth-first search."""
    adjacency = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adjacency[u].add(v)
        adjacency[v].add(u)
    out = []
    for v in range(g.n):
        dist = {v: 0}
        frontier = [v]
        for d in (1, 2):
            frontier = [x for u in frontier for x in adjacency[u] if x not in dist]
            dist.update((x, d) for x in frontier)
        out.append({x for x, d in dist.items() if d in (1, 2)})
    return out


def test_two_hop_matches_breadth_first_search_on_hub_graphs():
    # hubs make many two-hop walks land on the same vertex pair
    for kind, params, seed in [
        ("star", {"leaves": 40}, 0),
        ("clique_bipartite", {"q": 4, "N": 30}, 0),
        ("complete", {"n": 6}, 0),
        ("grid", {"rows": 5, "cols": 7}, 0),
        ("erdos_renyi", {"n": 80, "c": 0.5}, 3),
        ("complete", {"n": 1}, 0),
    ]:
        g = generate(kind, params, seed=seed)
        expect = _bfs_two_hop(g)
        indptr, indices = g.two_hop
        rows = [set(indices[a:b].tolist()) for a, b in zip(indptr[:-1], indptr[1:])]
        assert rows == expect, kind
        degs = [len({v for e in g.edges() if x in e for v in e} - {x}) for x in range(g.n)]
        st = degree_stats(g)
        assert st.avg_two_neighborhood == Fraction(sum(map(len, expect)), g.n), kind
        assert st.avg_degree == Fraction(sum(degs), g.n), kind
        assert (st.max_degree, st.isolated_count) == (max(degs), degs.count(0)), kind
    assert degree_stats(generate("erdos_renyi", {"n": 80, "c": 0.5}, seed=3)).isolated_count > 0


def _check_disjoint(g: Graph, subset):
    seen = set()
    for v in subset:
        nb = set(g.neighbors(v).tolist())
        assert not (nb & seen), f"overlapping neighborhoods in {subset}"
        seen |= nb


def test_disjoint_subset_path10():
    g = generate("path", {"n": 10})
    a = neighborhood_disjoint_subset(g, range(10), seed=0)
    _check_disjoint(g, a)
    assert len(a) >= neighborhood_disjoint_size_bound(g)


def test_disjoint_subset_edgeless_returns_all():
    g = Graph(6)
    assert neighborhood_disjoint_subset(g, range(6), seed=1) == list(range(6))


def test_disjoint_subset_complete_graph_single_vertex():
    g = generate("complete", {"n": 5})
    a = neighborhood_disjoint_subset(g, range(5), seed=3)
    assert len(a) == 1


def test_disjoint_subset_empty_input():
    g = generate("path", {"n": 4})
    assert neighborhood_disjoint_subset(g, [], seed=0) == []


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


def test_erdos_renyi_with_tiny_edge_probability_ends():
    # numpy saturates geometric gaps at 2^63 - 1 for such p; their sum must not wrap
    for c in [1e-300, 2.2250738585072014e-308]:
        assert generate("erdos_renyi", {"n": 45, "c": c}, seed=1).edge_count() == 0


def test_round_trip_all_kinds(tmp_path):
    for i, (kind, params) in enumerate(ALL_KINDS):
        g = generate(kind, params, seed=i)
        back = graph_from_json(graph_to_json(g))
        assert (back.n, back.edges()) == (g.n, g.edges())
        path = tmp_path / f"{kind}.json"
        write_graph(path, g, meta={"kind": kind})
        back = read_graph(path)
        assert (back.n, back.edges()) == (g.n, g.edges())


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
    with pytest.raises(GraphFormatError):
        graph_from_json('{"n": true, "edges": []}')
    for edges in [
        "[[0, 1.5]]",
        '[[0, "1"]]',
        "[[0, 1, 2]]",
        "[0, 1]",
        "{}",
        "[[0, 1], [1, 2], [0, 1]]",  # duplicate, not adjacent
        "[[0, 1], [2, 1]]",
        "[[0, 1], [2]]",
        "[[0, 1e400]]",
        "[[0, 18446744073709551615]]",
        "[[0, true]]",
    ]:
        with pytest.raises(GraphFormatError):
            graph_from_json('{"n": 3, "edges": %s}' % edges)


def test_readers_reject_deeply_nested_json():
    deep = "[" * 200_000
    for reader in [graph_from_json, constraint_from_json, configuration_from_json]:
        with pytest.raises(GraphFormatError, match="nested too deeply"):
            reader(deep)
        with pytest.raises(GraphFormatError, match="nested too deeply"):
            reader('{"n": 3, "q": 2, "edges": %s}' % deep)


def test_writer_emits_exact_shape():
    g = generate("path", {"n": 3})
    assert graph_to_json(g) == '{"edges": [[0, 1], [1, 2]], "n": 3}'


def test_padded_adjacency_and_edge_endpoints_cached_read_only():
    g = generate("star", {"leaves": 3})
    pad = g.padded_adjacency
    assert pad.tolist() == [[1, 2, 3], [0, 4, 4], [0, 4, 4], [0, 4, 4]]
    assert g.padded_adjacency is pad
    with pytest.raises(ValueError):
        pad[0, 0] = 2
    assert Graph(3).padded_adjacency.tolist() == [[3], [3], [3]]  # one sentinel column
    for kind, params in [("path", {"n": 7}), ("erdos_renyi", {"n": 30, "c": 2.0}), ("complete", {"n": 1})]:
        g = generate(kind, params, seed=2)
        eu, ev = g.edge_endpoints
        assert list(zip(eu.tolist(), ev.tolist())) == g.edges()
        assert g.edge_endpoints[0] is eu
        with pytest.raises(ValueError):
            eu[:1] = 0


# Recorded on the tuple-of-tuples representation that preceded CSR storage;
# any change here is a change to graph files, chain seeds or diagnose output.
# Each entry: kind, params, seed, the SHA-256 of graph_to_json, color_classes,
# neighborhood_disjoint_subset and a hardcore sample, then degree_stats.
PINNED_OUTPUTS = [
    (
        "path",
        {"n": 50},
        0,
        [
            "7472ffdce90b86854f85d4e6e68ecb529e180e96c4fcab862bea83ae26bcbe35",
            "827695d57b1d66753738d537dbfc9b4484866d6f26062ca732f65e9ee636c42c",
            "9f23891e704d8a46e49446c767f4bc941a8b44c9e7f8838337cfd430e9699bfd",
            "b2c34b9fec9feb5f88b793a857265e6c7cd0de9a83405ce18efe419b59b34e30",
        ],
        ("49/25", "97/25", 2, 0),
    ),
    (
        "cycle",
        {"n": 41},
        0,
        [
            "3ff936be24e4f543390e785e29d8f39e0981319e13aa67d1043f98b620e83c1f",
            "b796af88fd15d7157f015bcf2bc32e5ed6e2f37f9944e49a58f912821733a6cc",
            "84402d7e346f4c0dad2d3374139adf8f2f5339e21c65365a91bfb3a0532e6f58",
            "33ea7487bbdb582091bdb4da78f6ab6bd1cd795e07c828e40fcb64096f3400fb",
        ],
        ("2", "4", 2, 0),
    ),
    (
        "grid",
        {"rows": 9, "cols": 13},
        0,
        [
            "f4cfe1115cb38c9889645412fb948eba51f92aa5808b5156f8b59620535b2847",
            "fc4523aad052913718ba1b15c8c9167f6d1ce4e2ec9d9de90591b96880b23733",
            "e4383d6dd2cebc1ab2f75962850bf5e8ec9bc2a878af47df12e1355239d7ec3d",
            "ff9ad5a63f56fbde9ccd296737f84f65afb6b7d9029eada670306ae81b02a9c1",
        ],
        ("424/117", "132/13", 4, 0),
    ),
    (
        "complete",
        {"n": 9},
        0,
        [
            "b319543aeddbf577556b9bb4f6ae770be0f1ea50845ab075d7fa727a7fa444ed",
            "05c39bf99e2d9ee25f05a0f07e96f6b29d2751f49322a91670002ddded2cf7dc",
            "589ffd3acf522ae81192579f297589e93b0c41f748b224d1b4bb5c857a2f70cb",
            "590ce93583028445e41df646d176d2b289e141aba3a825450a069e7563eb8af8",
        ],
        ("8", "8", 8, 0),
    ),
    (
        "star",
        {"leaves": 40},
        0,
        [
            "17bda6529833495e04af8931f20a14052d6561e6a56e72d48810ff489af8479c",
            "71c52cafc9845eb09de8f1c4b5bda70bb6369f4ba675a8660833e91d5a2df058",
            "501376e57c8da536b2be29ebdc7dbeacbd7b9520b4f2250e65b0fc60e72365ec",
            "ad4a8405232cb4284293f472aac8d807d688aa3b293329b6aab131a8465fabfb",
        ],
        ("80/41", "40", 40, 0),
    ),
    (
        "random_regular",
        {"n": 2000, "d": 3},
        11,
        [
            "7d46ebdcf9d6ab93a33b377e0d0f26a2d5abb2d0bfede59951de812f4d552669",
            "4e35a1fcc583525d70a6f93f184c3a0e8c59a3fe2d16e2a761943025fc40a645",
            "8eedf448b1557ab731b0ad40ae3f2a3df0e8b66218433103de68a72b77a0ecee",
            "574ff1fd234d79f39eca784add88814e436db8284989fe7adc63297ceacfda97",
        ],
        ("3", "899/100", 3, 0),
    ),
    (
        "erdos_renyi",
        {"n": 3000, "c": 1.5},
        12,
        [
            "bb61250930b4a7261ab96e344603c338277cf452ad55189ebfcabade4e16ea10",
            "e60921c145f464ea8a35074121960cefcedbb1c98f9020ada93422380c5a817d",
            "73b4a34754f591ba178a5432db2c257f274a6e0096aac3f50788b240a249aee7",
            "3d1b31b5ffcfc82b45fe664f434d6c930605a25e5d2aeb371393519f45a45d8a",
        ],
        ("2189/1500", "2711/750", 7, 683),
    ),
    (
        "triangles_plus_path",
        {"N": 7, "K": 12},
        0,
        [
            "e234bccce92d787c69f6e208935e71fecc5a827926302e9bf537fa6414b6d698",
            "330358c2ac9b1ee109fb61ee1b2f0aabb3c9c2d9752fe65da356012ed2ecfc77",
            "1d132f100e5bf339395b2b478407e0e7aef6bdf11a4a970520b0ee0b7efd2f3f",
            "b848b68de53b4f59b69e1ba5540265cf49f898df342d7d96e7098702dfaeb8f3",
        ],
        ("64/33", "28/11", 2, 0),
    ),
    (
        "clique_bipartite",
        {"q": 4, "N": 30},
        0,
        [
            "433825f6d25d5b2c9f92934052f1960e608891101ca895ee1905c29ae8c74c5d",
            "e09d1291c343436833f44e2b21670b148147da81749eda3130746a21ed71eb91",
            "06d033ece6645de592db973644cf7357255f24536ff7b03c3b2ace10736f7636",
            "2125310e7d39733505ccba105f8b017d2062de13c7eb8d3085235a51e2adb6e6",
        ],
        ("62/11", "32", 32, 0),
    ),
    (
        "disjoint_union",
        {
            "parts": [
                {"kind": "erdos_renyi", "params": {"n": 60, "c": 2.5}},
                {"kind": "random_regular", "params": {"n": 40, "d": 4}},
                {"kind": "star", "params": {"leaves": 6}},
            ]
        },
        13,
        [
            "0c6d508dd9830d755daad7b64ede51a1589503bf30107496f4771cea758cb696",
            "d046f362fe3012890121f0b0e2233efb8d727f5edb9bbb1608917aa9e48533aa",
            "83932e478fb277c6bcf35e7e3eae84d86830be081b91c118a8c06adc15198bf5",
            "6ba333b62fdd27d80afa7bf56716c33cd9506eb7c858ce9f4a53cbba8a320b4d",
        ],
        ("328/107", "1142/107", 8, 5),
    ),
]


def _sha256(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "kind, params, seed, digests, stats", PINNED_OUTPUTS, ids=[p[0] for p in PINNED_OUTPUTS]
)
def test_outputs_match_pinned_digests(kind, params, seed, digests, stats):
    g = generate(kind, params, seed=seed)
    cfg = sample(Model(g, preset("hardcore"), [0.3]), burn_in_sweeps=20, seed=seed + 5)
    assert [
        _sha256(graph_to_json(g)),
        _sha256([c.tolist() for c in g.color_classes]),
        _sha256(neighborhood_disjoint_subset(g, range(g.n), seed=seed + 1)),
        _sha256(cfg.tolist()),
    ] == digests
    st = degree_stats(g)
    assert (str(st.avg_degree), str(st.avg_two_neighborhood), st.max_degree, st.isolated_count) == stats
