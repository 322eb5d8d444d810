"""End-to-end command-line runs: artifacts, determinism, exit codes."""
from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

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
