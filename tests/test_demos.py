"""Smoke test: each script under ``demos/`` runs to completion on a tiny
budget in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbga

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# script -> (tiny-budget flags, a line its output must contain)
RUNS = {
    "tsp_small_instance.py": (["--pop", "10", "--generations", "20"], "exhaustive optimum"),
    "ligand_design.py": (["--pop", "10", "--generations", "5"], "fixed-length design"),
}


def test_every_demo_has_a_smoke_run():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(RUNS)


@pytest.mark.parametrize("script", sorted(RUNS))
def test_demo_runs(script):
    args, expect = RUNS[script]
    env = dict(os.environ, PYTHONPATH=str(Path(nbga.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, str(DEMOS / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert expect in done.stdout
