"""Property test of the command-line boundary: whatever the arguments and the
settings file, ``main`` exits 0, 1, 2 or 3, prints nothing on success, and
prints one parseable error JSON otherwise. Sizes stay small (n <= 50, burn-in
<= 50, replicates <= 4, enumeration caps <= 1e5, one worker), so every example
runs in milliseconds."""
from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hcolor.cli import main
from hcolor.graphs import generate, write_graph
from hcolor.model import preset, write_configuration, write_constraint


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files the examples draw from, good and bad."""
    d = tmp_path_factory.mktemp("cli_boundary")
    write_graph(d / "cycle.json", generate("cycle", {"n": 6}))
    write_graph(d / "grid.json", generate("grid", {"rows": 3, "cols": 4}))
    write_configuration(d / "cfg.json", [1, 0, 1, 0, 1, 0])
    write_configuration(d / "cfg3.json", [0, 1, 2, 0, 1, 2], meta={"seed": 0})
    write_constraint(d / "wr.json", preset("widom_rowlinson"))
    (d / "bool_cfg.json").write_text("[true, false, 1, 0, 0, 0]")
    (d / "bool_h.json").write_text('{"q": 3, "edges": [[0, true]]}')
    (d / "list.json").write_text("[1]")
    (d / "text.json").write_text("not json")
    (d / "binary.json").write_bytes(bytes(range(128, 256)))
    (d / "dir").mkdir()
    return d


def _pick(good, bad):
    """Mostly a good value, else a bad one (None: the flag or key is left out)."""
    return st.tuples(st.integers(0, 5), good, bad).map(lambda t: t[1] if t[0] < 5 else t[2])


def _junk(ints=st.integers(-2, 4)):
    """A JSON value of the wrong type or shape; its integers come from ``ints``,
    so no size can grow past the bounds."""
    return st.one_of(
        st.none(),
        st.booleans(),
        ints,
        st.floats(-3, 50),
        st.sampled_from([float("nan"), float("inf")]),
        st.text(max_size=4),
        st.lists(ints, max_size=3),
        st.dictionaries(st.text(max_size=2), ints, max_size=2),
    )


# (h spec or file name, color count q); file names resolve in the fixture directory
_GOOD_H = [("hardcore", 2), ("widom_rowlinson", 3), ("counterexample_h", 4),
           ("proper_coloring:3", 3), ("proper_coloring:2", 2), ("multistate_hardcore:2", 3),
           ("wr.json", 3)]
_BAD_H = [(None, 2), ("proper_coloring:x", 3), ("proper_coloring", 2), ("mystery", 2),
          ("bool_h.json", 3), ("text.json", 2), ("dir", 2), ("missing.json", 2)]
_FILES = {"wr.json", "bool_h.json", "text.json", "dir", "missing.json"}

_N = st.integers(1, 50)
_GOOD_GRAPHS = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["path", "cycle", "complete"]),
                           "params": st.fixed_dictionaries({"n": _N})}),
    st.fixed_dictionaries({"kind": st.just("grid"),
                           "params": st.fixed_dictionaries({"rows": st.integers(1, 7),
                                                            "cols": st.integers(1, 7)})}),
    st.fixed_dictionaries({"kind": st.just("random_regular"),
                           "params": st.fixed_dictionaries({"n": _N, "d": st.integers(0, 4)})}),
    st.fixed_dictionaries({"kind": st.just("erdos_renyi"),
                           "params": st.fixed_dictionaries({"n": _N, "c": st.floats(0, 4)})}),
    st.fixed_dictionaries({"kind": st.just("triangles_plus_path"),
                           "params": st.fixed_dictionaries({"N": st.integers(0, 5),
                                                            "K": st.integers(0, 10)})}),
)
_BAD_GRAPHS = st.one_of(
    _junk(),
    st.fixed_dictionaries({"kind": st.sampled_from(["mystery", "path", "star", "disjoint_union"]),
                           "params": st.dictionaries(st.sampled_from(["n", "leaves", "parts"]),
                                                     _junk(st.integers(-2, 50)), max_size=2)}),
)


def _vector(q):
    return st.lists(st.floats(-3, 3), min_size=q - 1, max_size=q - 1)


@st.composite
def _h_and_beta(draw, files, as_text):
    """An ``h`` value and a ``beta`` that fits it most of the time."""
    spec, q = draw(_pick(st.sampled_from(_GOOD_H), st.sampled_from(_BAD_H)))
    if spec in _FILES:
        spec = str(files / spec)
    if as_text:
        beta = draw(_pick(
            _vector(q).map(lambda v: ",".join(map(repr, v))),
            st.one_of(st.none(), st.text(alphabet="0123456789.,-einfa", max_size=8)),
        ))
    else:
        beta = draw(_pick(_vector(q), st.one_of(st.lists(_vector(q), max_size=3), _junk())))
    return spec, beta


@st.composite
def _settings_text(draw, files):
    """The JSON text of an experiment settings file."""
    kind = draw(_pick(st.sampled_from(["consistency", "gradient_concentration", "kl"]),
                      st.one_of(st.just("mystery"), _junk())))
    h, beta = draw(_h_and_beta(files, as_text=False))
    settings = {
        "experiment": kind,
        "graph": draw(_pick(_GOOD_GRAPHS, _BAD_GRAPHS)),
        "h": h,
        "beta": beta,
        "beta_a": beta,
        "beta_b": draw(_pick(st.just(beta), _junk())),
        "n_list": draw(_pick(st.lists(_N, min_size=1, max_size=2),
                             st.one_of(st.lists(st.integers(-2, 50), max_size=2), _junk()))),
        "replicates": draw(_pick(st.integers(0, 4), _junk())),
        "burn_in_sweeps": draw(_pick(st.integers(0, 50), _junk())),
        "state_cap": draw(_pick(st.integers(1, 10**5), _junk())),
        "method": draw(st.sampled_from(["brute_force", "component_factorized", "mystery"])),
        "h_name": draw(_pick(st.text(max_size=4), _junk())),
    }
    # one key may be left out, but never one whose default is not small
    dropped = draw(st.sets(st.sampled_from(sorted(settings)), max_size=1))
    for key in dropped - {"burn_in_sweeps", "state_cap"}:
        del settings[key]
    return json.dumps(settings)


@st.composite
def _invocation(draw, files):
    """(argv, settings text or None) for one command."""

    def path(good, bad):
        name = draw(_pick(st.sampled_from(good), st.sampled_from(bad + [None])))
        return None if name is None else str(files / name)

    seed = draw(_pick(st.integers(0, 10), st.sampled_from([-1, "x", "1.5", None])))
    command = draw(st.sampled_from(
        ["gen-graph", "sample", "estimate", "exact", "experiment", "diagnose"]))
    text = None
    if command == "gen-graph":
        spec = draw(_pick(_GOOD_GRAPHS, _BAD_GRAPHS))
        if isinstance(spec, dict):
            kind, params = spec.get("kind"), spec.get("params", {})
        else:
            kind, params = "path", spec
        flags = {"--kind": kind, "--params": json.dumps(params), "--seed": seed}
    elif command == "experiment":
        text = draw(_settings_text(files))
        flags = {
            "--settings": path(["settings.json"],
                               ["list.json", "text.json", "binary.json", "dir", "missing.json"]),
            "--seed": seed,
            "--jobs": draw(_pick(st.just(1), st.sampled_from([0, -1, None]))),
        }
    else:
        h, beta = draw(_h_and_beta(files, as_text=True))
        flags = {
            "--graph": path(["cycle.json", "grid.json"],
                            ["cfg.json", "list.json", "text.json", "binary.json", "dir",
                             "missing.json"]),
            "--h": h,
        }
        if command in ("estimate", "diagnose"):
            flags["--config"] = path(["cfg.json", "cfg3.json"],
                                     ["bool_cfg.json", "cycle.json", "text.json", "binary.json",
                                      "dir", "missing.json"])
        if command != "estimate":
            flags["--beta"] = beta
        if command == "sample":
            flags.update({"--burnin": draw(st.integers(-1, 50)), "--seed": seed})
        elif command == "estimate":
            flags["--tol"] = draw(_pick(st.floats(1e-12, 1e-3),
                                        st.sampled_from([0, -1, "nan", "x", None])))
        elif command == "exact":
            flags["--cap"] = draw(st.integers(-1, 10**5))
        else:
            flags["--seed"] = seed
    flags["--out"] = path(["out.json"], ["nowhere/out.json", "dir"])
    # the --flag=value form, because a value such as a beta list may start with '-'
    argv = [command] + [f"{flag}={value}" for flag, value in flags.items() if value is not None]
    return argv, text


def test_cli_boundary_exit_codes_and_error_json(files):
    @settings(derandomize=True, max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(_invocation(files))
    def run(case):
        argv, text = case
        if text is not None:
            (files / "settings.json").write_text(text)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert stdout.getvalue() == ""
        else:
            error = json.loads(stdout.getvalue())["error"]
            assert set(error) == {"type", "message"}

    run()
