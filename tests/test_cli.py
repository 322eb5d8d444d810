"""End-to-end command-line runs: artifacts, determinism, exit codes."""
from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from hcolor import graphs
from hcolor.cli import main
from hcolor.graphs import read_graph
from hcolor.pseudolikelihood import mpl_hardcore


def run_cli(*argv) -> int:
    return main(list(argv))


def test_gen_graph_writes_readable_file(tmp_path):
    out = tmp_path / "g.json"
    code = run_cli("gen-graph", "--kind", "cycle", "--params", '{"n": 6}', "--seed", "1", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 6
    assert len(payload["edges"]) == 6
    assert payload["meta"]["version"]
    assert payload["meta"]["config"]["kind"] == "cycle"


def test_sample_is_byte_deterministic(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen-graph", "--kind", "path", "--params", '{"n": 8}', "--seed", "0", "--out", str(g))
    out = tmp_path / "a.json"
    texts = []
    for _ in range(2):
        code = run_cli(
            "sample", "--graph", str(g), "--h", "hardcore", "--beta", "0.5",
            "--burnin", "30", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["meta"]["seed"] == 7


def test_estimate_hardcore_closed_form(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen-graph", "--kind", "path", "--params", '{"n": 3}', "--seed", "0", "--out", str(g))
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[0, 0, 1]\n")
    out = tmp_path / "report.json"
    code = run_cli("estimate", "--graph", str(g), "--h", "hardcore", "--config", str(cfg), "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["beta_hat"] == [0.0]
    assert report["degenerate"] == [""]
    assert report["meta"]["command"] == "estimate"


def test_estimate_rejects_boolean_configuration(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli("gen-graph", "--kind", "path", "--params", '{"n": 3}', "--out", str(g))
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[true, false, 1]\n")
    out = tmp_path / "report.json"
    code = run_cli("estimate", "--graph", str(g), "--h", "hardcore", "--config", str(cfg), "--out", str(out))
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": {"type": "GraphFormatError", "message": "configuration JSON must be an array of integers"}
    }
    assert not out.exists()


def test_estimate_general_model(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen-graph", "--kind", "cycle", "--params", '{"n": 6}', "--seed", "0", "--out", str(g))
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[0, 1, 0, 2, 0, 1]\n")
    out = tmp_path / "report.json"
    code = run_cli(
        "estimate", "--graph", str(g), "--h", "proper_coloring:3", "--config", str(cfg), "--out", str(out)
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["beta_hat"]) == 2
    assert len(report["rainbow_fractions"]) == 2


def test_estimate_degenerate_hardcore(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen-graph", "--kind", "path", "--params", '{"n": 4}', "--seed", "0", "--out", str(g))
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[0, 0, 0, 0]\n")
    out = tmp_path / "report.json"
    assert run_cli("estimate", "--graph", str(g), "--h", "hardcore", "--config", str(cfg), "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["beta_hat"] == ["-inf"]
    assert report["degenerate"] == ["-inf"]


def test_estimate_hardcore_cross_check_on_large_cycle(tmp_path):
    # large beta_hat with small curvature: the optimizer must still land
    # within 1e-6 of the closed form instead of refusing to write
    g = tmp_path / "g.json"
    run_cli("gen-graph", "--kind", "cycle", "--params", '{"n": 6003}', "--out", str(g))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([1, 0] * 3000 + [0, 0, 0]) + "\n")
    out = tmp_path / "report.json"
    code = run_cli("estimate", "--graph", str(g), "--h", "hardcore", "--config", str(cfg), "--out", str(out))
    assert code == 0
    # 3000 occupied vertices; 2 empty vertices with an empty neighborhood
    assert json.loads(out.read_text())["beta_hat"] == [math.log(3000 / 2)]


def _previous_estimate_encoding(report, meta) -> str:
    """The estimate artifact as the CLI wrote it before it reused report_to_json."""

    def enc(x):
        if np.isfinite(x):
            return float(x)
        return "+inf" if x > 0 else "-inf"

    payload = {
        "beta_hat": [enc(v) for v in report.beta_hat],
        "degenerate": list(report.degenerate),
        "iterations": report.iterations,
        "grad_norm": report.final_gradient_norm,
        "lambda_min": report.min_eigenvalue_neg_hessian_at_fit,
        "rainbow_fractions": [float(v) for v in report.rainbow_fractions],
        "meta": meta,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "cfg",
    [
        [0, 0, 0, 0, 0],  # degenerate: beta_hat = -inf
        [1, 0, 0, 0, 1],  # finite: log(c / u) = log 2
    ],
)
def test_estimate_artifact_bytes_unchanged(tmp_path, cfg):
    g = tmp_path / "g.json"
    run_cli("gen-graph", "--kind", "path", "--params", '{"n": 5}', "--out", str(g))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg) + "\n")
    out = tmp_path / "report.json"
    assert run_cli("estimate", "--graph", str(g), "--h", "hardcore", "--config", str(cfg_path), "--out", str(out)) == 0
    report = mpl_hardcore(cfg, read_graph(str(g)))
    text = out.read_text()
    assert text == _previous_estimate_encoding(report, json.loads(text)["meta"])


def test_exact_command(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen-graph", "--kind", "complete", "--params", '{"n": 2}', "--seed", "0", "--out", str(g))
    out = tmp_path / "exact.json"
    code = run_cli("exact", "--graph", str(g), "--h", "hardcore", "--beta", "0.0", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["log_partition"] == pytest.approx(math.log(3))
    assert payload["expected_counts"][1] == pytest.approx(2 / 3)
    assert len(payload["expected_unconstrained"]) == 2


def test_exact_cap_exit_code(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli("gen-graph", "--kind", "grid", "--params", '{"rows": 4, "cols": 5}', "--seed", "0", "--out", str(g))
    out = tmp_path / "exact.json"
    code = run_cli(
        "exact", "--graph", str(g), "--h", "proper_coloring:4",
        "--beta", "0,0,0", "--cap", "500", "--out", str(out),
    )
    assert code == 3
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "EnumerationCapError"


def test_infeasible_exit_code(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli("gen-graph", "--kind", "complete", "--params", '{"n": 3}', "--seed", "0", "--out", str(g))
    out = tmp_path / "s.json"
    code = run_cli(
        "sample", "--graph", str(g), "--h", "proper_coloring:2", "--beta", "0.0",
        "--burnin", "5", "--seed", "0", "--out", str(out),
    )
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "InfeasibleModelError"


def test_invalid_input_exit_code(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = run_cli("gen-graph", "--kind", "mystery", "--params", "{}", "--out", str(out))
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ParameterError"
    # bad flags also map to exit 1, not argparse's default behavior
    assert run_cli("gen-graph", "--nope") == 1
    capsys.readouterr()


@pytest.mark.parametrize("params", ["[1]", '{"n": "x"}', '{"n": null}', '{"n": 1e999}'])
def test_gen_graph_rejects_malformed_params(tmp_path, capsys, params):
    out = tmp_path / "g.json"
    code = run_cli("gen-graph", "--kind", "path", "--params", params, "--out", str(out))
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ParameterError"
    assert not out.exists()


def test_bad_preset_color_count_exit_code(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli("gen-graph", "--kind", "cycle", "--params", '{"n": 4}', "--out", str(g))
    out = tmp_path / "s.json"
    code = run_cli(
        "sample", "--graph", str(g), "--h", "proper_coloring:x", "--beta", "0,0", "--out", str(out),
    )
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ParameterError"
    assert not out.exists()


def _kl_settings(tmp_path, graph: dict, h: str) -> str:
    settings = tmp_path / "settings.json"
    settings.write_text(
        json.dumps({"experiment": "kl", "graph": graph, "h": h, "beta_a": [0.0], "beta_b": [0.5]})
    )
    return str(settings)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_experiment_rejects_nonpositive_jobs(tmp_path, capsys, jobs):
    settings = _kl_settings(tmp_path, {"kind": "path", "params": {"n": 3}}, "hardcore")
    out = tmp_path / "kl.json"
    code = run_cli("experiment", "--settings", settings, "--jobs", jobs, "--out", str(out))
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ParameterError"
    assert not out.exists()


def test_experiment_rejects_settings_that_are_not_an_object(tmp_path, capsys):
    settings = tmp_path / "settings.json"
    settings.write_text("[1]\n")
    out = tmp_path / "out.json"
    code = run_cli("experiment", "--settings", str(settings), "--out", str(out))
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ParameterError"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["consistency", "gradient_concentration"])
def test_experiment_rejects_negative_replicates(tmp_path, capsys, kind):
    settings = tmp_path / "settings.json"
    settings.write_text(
        json.dumps(
            {
                "experiment": kind,
                "graph": {"kind": "cycle", "params": {}},
                "h": "hardcore",
                "beta": [0.2],
                "n_list": [12],
                "replicates": -3,
                "burn_in_sweeps": 10,
            }
        )
    )
    out = tmp_path / "rows.csv"
    code = run_cli("experiment", "--settings", str(settings), "--out", str(out))
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ParameterError"
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, change",
    [
        ("consistency", {"graph": [1]}),
        ("consistency", {"graph": {"kind": "cycle", "params": [1]}}),
        ("consistency", {"replicates": "2"}),
        ("consistency", {"replicates": True}),
        ("consistency", {"n_list": 12}),
        ("consistency", {"beta": [[0.2], [0.1, 0.3]]}),
        ("consistency", {"burn_in_sweeps": "10"}),
        ("gradient_concentration", {"beta": "0.2"}),
        ("gradient_concentration", {"n_list": ["12"]}),
        ("kl", {"graph": "cycle"}),
        ("kl", {"beta_a": "x"}),
        ("kl", {"state_cap": "x"}),
        ("consistency", {"h_name": None}),
        ("gradient_concentration", {"h_name": [1]}),
        ("kl", {"beta_a": [float("nan")]}),  # JSON NaN would reach the artifact
    ],
)
def test_experiment_rejects_wrongly_typed_settings(tmp_path, capsys, kind, change):
    settings = tmp_path / "settings.json"
    base = {
        "experiment": kind,
        "graph": {"kind": "cycle", "params": {}},
        "h": "hardcore",
        "beta": [0.2],
        "beta_a": [0.2],
        "beta_b": [0.1],
        "n_list": [12],
        "replicates": 2,
        "burn_in_sweeps": 10,
    }
    settings.write_text(json.dumps({**base, **change}))
    out = tmp_path / "rows.csv"
    code = run_cli("experiment", "--settings", str(settings), "--out", str(out))
    assert code == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ParameterError"
    assert not out.exists()


def test_experiment_kl_infeasible_exit_code(tmp_path, capsys):
    # no proper 2-coloring of a triangle exists
    settings = _kl_settings(tmp_path, {"kind": "complete", "params": {"n": 3}}, "proper_coloring:2")
    out = tmp_path / "kl.json"
    code = run_cli("experiment", "--settings", settings, "--out", str(out))
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "InfeasibleModelError"
    assert not out.exists()


def test_experiment_consistency_csv(tmp_path):
    settings = tmp_path / "settings.json"
    settings.write_text(
        json.dumps(
            {
                "experiment": "consistency",
                "graph": {"kind": "cycle", "params": {}},
                "h": "hardcore",
                "beta": [0.2],
                "n_list": [12, 24],
                "replicates": 4,
                "burn_in_sweeps": 10,
            }
        )
    )
    out = tmp_path / "rows.csv"
    code = run_cli("experiment", "--settings", str(settings), "--seed", "3", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# meta: ")
    assert len(lines) == 4  # meta + header + two rows
    rerun = tmp_path / "rows2.csv"
    run_cli("experiment", "--settings", str(settings), "--seed", "3", "--out", str(rerun))
    assert out.read_text().replace("rows.csv", "X") == rerun.read_text().replace("rows2.csv", "X")


def test_experiment_kl_json(tmp_path):
    settings = tmp_path / "settings.json"
    settings.write_text(
        json.dumps(
            {
                "experiment": "kl",
                "graph": {"kind": "triangles_plus_path", "params": {"N": 2, "K": 3}},
                "h": "counterexample_h",
                "beta_a": [0.0, 0.0, 0.5],
                "beta_b": [0.0, 0.0, -0.5],
                "method": "component_factorized",
            }
        )
    )
    out = tmp_path / "kl.json"
    code = run_cli("experiment", "--settings", str(settings), "--seed", "0", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["kl"] >= 0
    assert payload["method"] == "component_factorized"


def test_experiment_gradient_concentration_csv(tmp_path):
    settings = tmp_path / "settings.json"
    settings.write_text(
        json.dumps(
            {
                "experiment": "gradient_concentration",
                "graph": {"kind": "cycle", "params": {}},
                "h": "hardcore",
                "beta": [0.0],
                "n_list": [16],
                "replicates": 5,
                "burn_in_sweeps": 10,
            }
        )
    )
    out = tmp_path / "conc.csv"
    assert run_cli("experiment", "--settings", str(settings), "--seed", "1", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1] == "n,mean_scaled_grad_sq,replicates,seed"
    assert lines[2].startswith("16,")


def test_diagnose(tmp_path):
    g = tmp_path / "g.json"
    run_cli("gen-graph", "--kind", "path", "--params", '{"n": 10}', "--seed", "0", "--out", str(g))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([0, 1, 0, 0, 0, 1, 0, 0, 1, 0]))
    out = tmp_path / "diag.json"
    code = run_cli(
        "diagnose", "--graph", str(g), "--h", "hardcore", "--config", str(cfg),
        "--beta", "0.0", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["degree_stats"]["avg_two_neighborhood"] == "17/5"
    assert payload["neighborhood_disjoint"]["meets_bound"] is True
    assert 0 <= payload["lambda_min"] <= 1
    assert len(payload["rainbow_fractions"]) == 2


def test_diagnose_builds_two_hop_structure_once(tmp_path, monkeypatch):
    # degree stats, the subset search and its size bound share one cached build
    calls = []
    build = graphs._two_hop_csr
    monkeypatch.setattr(graphs, "_two_hop_csr", lambda *a: calls.append(a) or build(*a))
    g = tmp_path / "g.json"
    run_cli("gen-graph", "--kind", "grid", "--params", '{"rows": 4, "cols": 5}', "--out", str(g))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([0] * 20))
    out = tmp_path / "diag.json"
    code = run_cli(
        "diagnose", "--graph", str(g), "--h", "hardcore", "--config", str(cfg),
        "--beta", "0.0", "--out", str(out),
    )
    assert code == 0
    assert len(calls) == 1


def test_module_entry_point(tmp_path):
    out = tmp_path / "g.json"
    proc = subprocess.run(
        [sys.executable, "-m", "hcolor", "gen-graph", "--kind", "cycle",
         "--params", '{"n": 4}', "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["n"] == 4


# Each command run in-process with relative paths, so the artifacts (whose
# ``meta`` records every path) hash the same in any working directory.
_PINNED_SETTINGS = {
    "consistency.json": {
        "experiment": "consistency",
        "graph": {"kind": "cycle", "params": {}},
        "h": "hardcore",
        "beta": [0.2],
        "n_list": [12],
        "replicates": 2,
        "burn_in_sweeps": 10,
    },
    "gradient.json": {
        "experiment": "gradient_concentration",
        "graph": {"kind": "cycle", "params": {}},
        "h": "hardcore",
        "beta": [0.0],
        "n_list": [16],
        "replicates": 2,
        "burn_in_sweeps": 10,
    },
    "kl.json": {
        "experiment": "kl",
        "graph": {"kind": "path", "params": {"n": 4}},
        "h": "hardcore",
        "beta_a": [0.0],
        "beta_b": [0.5],
    },
}

_PINNED_RUNS = [
    ("gen-graph", "--kind", "cycle", "--params", '{"n": 12}', "--seed", "1", "--out", "g.json"),
    ("sample", "--graph", "g.json", "--h", "hardcore", "--beta", "0.3", "--burnin", "20",
     "--seed", "5", "--out", "hc.json"),
    ("sample", "--graph", "g.json", "--h", "proper_coloring:3", "--beta", "0.1,-0.2",
     "--burnin", "20", "--seed", "6", "--out", "pc.json"),
    ("estimate", "--graph", "g.json", "--h", "hardcore", "--config", "hc.json", "--out", "est_hc.json"),
    ("estimate", "--graph", "g.json", "--h", "proper_coloring:3", "--config", "pc.json",
     "--out", "est_pc.json"),
    ("exact", "--graph", "g.json", "--h", "hardcore", "--beta", "0.5", "--out", "exact.json"),
    ("experiment", "--settings", "consistency.json", "--seed", "3", "--out", "rows.csv"),
    ("experiment", "--settings", "gradient.json", "--seed", "1", "--out", "conc.csv"),
    ("experiment", "--settings", "kl.json", "--out", "kl_out.json"),
    ("diagnose", "--graph", "g.json", "--h", "hardcore", "--config", "hc.json", "--beta", "0.3",
     "--seed", "2", "--out", "diag.json"),
]

_PINNED_DIGESTS = {
    "g.json": "9fe6c3b22bde23387e503afd446fd0e6f3c69604c3f5c48d5aff12f66d9bfd88",
    "hc.json": "5054cb7d7becc3d86af0d57dc5636015159725b60f16eafcca96a24e8a16216c",
    "pc.json": "7b9ecd2b91539a0aeb99d66276f0508123fb717454aed591f209af55f8b37e10",
    "est_hc.json": "27af1b0b9069607b08aec766f8572ea7ede45aa61f4817a5af92740fc6cd0879",
    "est_pc.json": "bf5ca14fae3247bd6aae09c940e41eb58fb6a8f271671467271246c809dffc2a",
    "exact.json": "4e53885083a6a17aa544bfcfc4aea09c3ab99998553de79acacd40db97df1f12",
    "rows.csv": "259511b83f2eaad4582146fc8a675c7f0f9e25fe4fb57a75f46a4e5762fe7783",
    "conc.csv": "0451692206dc66733c76f8695e2401cfe0d657fd0025f383286b38fe9b897afd",
    "kl_out.json": "2cfc03573667a04771a7c9320276380252355fe9fcfff07da191d040de5448c3",
    "diag.json": "a49c42ea59eab71a18acaf5fad3348f488a0e68f494361d73ae1e32713ffaa39",
}


def test_cli_artifacts_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, settings in _PINNED_SETTINGS.items():
        (tmp_path / name).write_text(json.dumps(settings))
    for argv in _PINNED_RUNS:
        assert run_cli(*argv) == 0, argv
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in (argv[-1] for argv in _PINNED_RUNS)
    }
    assert digests == _PINNED_DIGESTS


@pytest.mark.parametrize(
    "argv, code, kind, message",
    [
        (("sample", "--graph", "g.json", "--h", "proper_coloring:x", "--beta", "0,0",
          "--out", "s.json"), 1,
         "ParameterError", "could not parse the color count in 'proper_coloring:x'"),
        (("exact", "--graph", "odd.json", "--h", "proper_coloring:2", "--beta", "0",
          "--out", "e.json"), 2,
         "InfeasibleModelError", "no valid configuration exists"),
        (("exact", "--graph", "g.json", "--h", "hardcore", "--beta", "0.5", "--cap", "3",
          "--out", "e.json"), 3,
         "EnumerationCapError", "enumeration exceeded the cap of 3 node expansions"),
    ],
)
def test_cli_errors_match_pinned_output(tmp_path, monkeypatch, capsys, argv, code, kind, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli("gen-graph", "--kind", "cycle", "--params", '{"n": 12}', "--out", "g.json") == 0
    assert run_cli("gen-graph", "--kind", "cycle", "--params", '{"n": 5}', "--out", "odd.json") == 0
    capsys.readouterr()
    assert run_cli(*argv) == code
    assert capsys.readouterr().out == json.dumps({"error": {"type": kind, "message": message}}) + "\n"
    assert not (tmp_path / argv[-1]).exists()
