"""Smoke tests for the experiment scripts, run as subprocesses on short n-ranges."""

import json
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


def test_bench_layers_writes_every_case(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script("bench_layers.py", "--out", str(out), "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    cases = json.loads(out.read_text())["cases"]
    for lam in (10, 100, 1000):
        assert cases[f"phase.2+sin(x).lam={lam}"]["cells"] == 177
    for name in ("lanes.2+sin(x).23", "build_mesh.(1-x)/x", "build_mesh.2+sin(x)", "jump_sequence.2+sin(x).1-500"):
        assert cases[name]["ms"] > 0.0, name
    assert cases["build_mesh.2+sin(x)"]["cells"] == 59
    assert cases["src_lines"]["lines"] > 1000
