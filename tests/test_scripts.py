"""Smoke tests for the experiment scripts, run as subprocesses on short n-ranges."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_theorem_sweep_runs():
    proc = run_script("theorem_sweep.py", "--n-min", "10", "--n-max", "40", "--weyl-samples", "5")
    assert proc.returncode == 0, proc.stderr
    assert "consistent = True" in proc.stdout
    assert "inclusion violations = 0/60" in proc.stdout


def test_conjecture_table_reproduces_kappa():
    proc = run_script("conjecture_table.py", "--n-min", "60", "--n-max", "100")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().split("\n")[1:]
    assert [row.split()[0] for row in rows] == ["x", "(1-x)/x", "sqrt(x)"]
    for row in rows:
        gap = float(row.split()[4])
        assert gap < 0.01, row
