"""Every demo script runs to completion."""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
