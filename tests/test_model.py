"""Constraint graphs, presets, validity, counts, and the allowed-color machinery."""
from __future__ import annotations

import numpy as np
import pytest

from hcolor.errors import (
    DisconnectedConstraintError,
    FullyLooseConstraintError,
    GraphFormatError,
    InvalidConfigurationError,
    ParameterError,
)
from hcolor.graphs import generate
from hcolor.model import (
    PRESET_NAMES,
    ConstraintGraph,
    Model,
    allowed_colors,
    allowed_matrix,
    color_counts,
    configuration_from_json,
    configuration_to_json,
    constraint_from_json,
    constraint_to_json,
    is_hardcore,
    is_valid,
    preset,
    unconstrained_counts,
)
from hcolor.sampler import find_valid_configuration, sample

K2 = generate("complete", {"n": 2})
TRIANGLE = generate("complete", {"n": 3})


def test_presets():
    hard = preset("hardcore")
    assert hard.q == 2 and hard.edges == frozenset({(0, 0), (0, 1)})
    msh = preset("multistate_hardcore", q=2)
    assert msh.q == 3
    assert msh.edges == frozenset({(0, 0), (0, 1), (0, 2), (1, 1)})
    col = preset("proper_coloring", q=3)
    assert col.q == 3 and col.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    wr = preset("widom_rowlinson")
    assert wr.allows(0, 1) and wr.allows(0, 2) and not wr.allows(1, 2)
    assert wr.allows(1, 1) and wr.allows(2, 2)
    cx = preset("counterexample_h")
    assert cx.neighbors(3) == (2,)
    assert cx.is_connected()
    with pytest.raises(ParameterError):
        preset("proper_coloring")
    with pytest.raises(ParameterError):
        preset("unknown")


def test_preset_names_are_the_presets():
    for name in PRESET_NAMES:
        assert isinstance(preset(name, q=3), ConstraintGraph)
    assert "hardcore" in PRESET_NAMES and "proper_coloring:3" not in PRESET_NAMES


def test_is_hardcore():
    assert is_hardcore(preset("hardcore"))
    assert is_hardcore(ConstraintGraph(2, [(1, 0), (0, 0)]))
    assert not is_hardcore(preset("proper_coloring", q=2))


def test_constraint_graph_validation():
    with pytest.raises(ParameterError):
        ConstraintGraph(1, [(0, 0)])
    with pytest.raises(ParameterError):
        ConstraintGraph(2, [(0, 2)])
    # symmetric regardless of input order
    cg = ConstraintGraph(3, [(2, 0)])
    assert cg.allows(0, 2) and cg.allows(2, 0)


def test_model_rejects_fully_loose_and_disconnected():
    loose = ConstraintGraph(2, [(0, 0), (0, 1), (1, 1)])
    assert loose.is_fully_loose()
    with pytest.raises(FullyLooseConstraintError):
        Model(K2, loose, [0.0])
    disconnected = ConstraintGraph(3, [(0, 1), (2, 2)])
    with pytest.raises(DisconnectedConstraintError):
        Model(K2, disconnected, [0.0, 0.0])
    with pytest.raises(ParameterError):
        Model(K2, preset("hardcore"), [0.0, 1.0])
    with pytest.raises(ParameterError):
        Model(K2, preset("hardcore"), [float("inf")])


def test_is_valid_examples():
    hard = preset("hardcore")
    assert not is_valid([1, 1], K2, hard)
    assert is_valid([1, 0], K2, hard)
    assert is_valid([0, 1, 2], TRIANGLE, preset("proper_coloring", q=3))
    with pytest.raises(InvalidConfigurationError):
        is_valid([0, 1], TRIANGLE, hard)  # length mismatch
    with pytest.raises(InvalidConfigurationError):
        is_valid([0, 3], K2, hard)  # color out of range



def test_is_valid_matches_edge_loop():
    # random colorings, mostly invalid, against an edge-by-edge reference
    rng = np.random.default_rng(17)
    hselect = [preset("hardcore"), preset("widom_rowlinson"), preset("proper_coloring", q=3)]
    outcomes = set()
    for trial in range(60):
        h = hselect[trial % len(hselect)]
        g = generate("erdos_renyi", {"n": int(rng.integers(1, 12)), "c": 1.2}, seed=trial)
        cfg = rng.integers(0, h.q, size=g.n)
        expected = all(h.allow_matrix[cfg[u], cfg[v]] for u, v in g.edges())
        assert is_valid(cfg, g, h) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_color_counts():
    assert color_counts([0, 1, 0, 2], 3).tolist() == [2, 1, 1]
    assert color_counts([0] * 6, 2).tolist() == [6, 0]
    assert color_counts([1, 0, 1], 2).tolist() == [1, 2]
    with pytest.raises(InvalidConfigurationError):
        color_counts([0, 5], 3)


def test_allowed_colors_examples():
    # rainbow triangle: each vertex is forced to keep its color
    col3 = preset("proper_coloring", q=3)
    assert allowed_colors(0, [0, 1, 2], TRIANGLE, col3) == (0,)
    # star center with every leaf empty can be empty or occupied
    star = generate("star", {"leaves": 3})
    assert allowed_colors(0, [0, 0, 0, 0], star, preset("hardcore")) == (0, 1)
    # species 2 cannot sit next to species 1
    assert allowed_colors(0, [0, 1], K2, preset("widom_rowlinson")) == (0, 1)


def test_allowed_colors_is_local():
    g = generate("path", {"n": 5})
    col3 = preset("proper_coloring", q=3)
    cfg = np.array([0, 1, 0, 1, 0])
    before = allowed_colors(1, cfg, g, col3)
    far = cfg.copy()
    far[4] = 2  # vertex 4 is outside the closed neighborhood of 1
    assert allowed_colors(1, far, g, col3) == before


def test_unconstrained_counts_examples():
    hard = preset("hardcore")
    c5 = generate("cycle", {"n": 5})
    cfg = [1, 0, 0, 0, 0]
    u = unconstrained_counts(cfg, c5, hard)
    # occupiable: vertex 0 itself plus vertices 2 and 3 (both neighbors empty)
    assert u[1] == 3
    # the recolorable-empties bridge: u_1 - c_1 counts empty vertices with
    # all-empty neighborhoods, here vertices 2 and 3
    assert u[1] - color_counts(cfg, 2)[1] == 2

    col3 = preset("proper_coloring", q=3)
    assert unconstrained_counts([0, 1, 2], TRIANGLE, col3).tolist() == [1, 1, 1]

    assert unconstrained_counts([0, 0], K2, hard)[1] == 2

    with pytest.raises(InvalidConfigurationError):
        unconstrained_counts([1, 1], K2, hard)


def test_unconstrained_at_least_color_counts_random():
    rng = np.random.default_rng(3)
    hselect = [
        preset("hardcore"),
        preset("widom_rowlinson"),
        preset("multistate_hardcore", q=2),
        preset("proper_coloring", q=3),
    ]
    for trial in range(40):
        h = hselect[trial % len(hselect)]
        g = generate("erdos_renyi", {"n": int(rng.integers(3, 16)), "c": 1.5}, seed=trial)
        try:
            cfg = find_valid_configuration(g, h, seed=trial)
        except Exception:
            continue
        u = unconstrained_counts(cfg, g, h)
        c = color_counts(cfg, h.q)
        assert np.all(u >= c)


def test_hardcore_unconstrained_bridge_on_samples():
    # empty-and-recolorable count == allowed-at-1 count minus occupied count
    hard = preset("hardcore")
    for seed in range(10):
        g = generate("erdos_renyi", {"n": 14, "c": 2.0}, seed=seed)
        model = Model(g, hard, [0.4])
        cfg = sample(model, burn_in_sweeps=40, seed=seed)
        u1 = unconstrained_counts(cfg, g, hard)[1]
        c1 = color_counts(cfg, 2)[1]
        direct = sum(
            1
            for v in range(g.n)
            if cfg[v] == 0 and all(cfg[w] == 0 for w in g.neighbors(v))
        )
        assert u1 - c1 == direct


def test_valid_implies_own_color_allowed():
    rng = np.random.default_rng(9)
    col3 = preset("proper_coloring", q=3)
    for seed in range(10):
        g = generate("cycle", {"n": 8}, seed=seed)
        cfg = find_valid_configuration(g, col3, seed=seed)
        for u in range(g.n):
            assert cfg[u] in allowed_colors(u, cfg, g, col3)
    am = allowed_matrix(cfg, g, col3)
    assert am[np.arange(g.n), cfg].all()


def test_constraint_round_trip():
    for h in [preset("hardcore"), preset("widom_rowlinson"), preset("counterexample_h")]:
        assert constraint_from_json(constraint_to_json(h)) == h
    for text in [
        '{"q": 2, "edges": [[1, 0]]}',
        '{"q": 2, "edges": [[0, 2]]}',
        '{"q": 3, "edges": [[0, true]]}',  # a JSON boolean is not a color
        '{"q": 3, "edges": [[false, 1]]}',
        '{"q": true, "edges": []}',
    ]:
        with pytest.raises(GraphFormatError):
            constraint_from_json(text)


def test_configuration_round_trip():
    cfg = np.array([0, 2, 1])
    assert configuration_from_json(configuration_to_json(cfg)).tolist() == [0, 2, 1]
    # wrapped form with metadata is also readable
    assert configuration_from_json('{"configuration": [1, 0], "meta": {}}').tolist() == [1, 0]
    for text in ['{"colors": [1]}', '[0, "a"]', "[true, false, 1]", '{"configuration": [0, true]}']:
        with pytest.raises(GraphFormatError):
            configuration_from_json(text)
