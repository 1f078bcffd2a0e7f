"""Smoke test for the layer benchmark script, run as a subprocess."""

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


def test_bench_layers_writes_every_case(tmp_path):
    out = tmp_path / "bench.json"
    proc = run_script("bench_layers.py", "--out", str(out), "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    cases = json.loads(out.read_text())["cases"]
    for lam in (10, 100, 1000):
        assert cases[f"phase.2+sin(x).lam={lam}"]["cells"] == 48
    for name in ("lanes.2+sin(x).23", "build_mesh.(1-x)/x", "build_mesh.2+sin(x)", "jump_sequence.2+sin(x).1-500"):
        assert cases[name]["ms"] > 0.0, name
    assert cases["build_mesh.2+sin(x)"]["cells"] == 16
    # the conjecture class at rtol 1e-11: the bulk mesh and its halves, and collocation cells on the
    # slivers, which are also timed alone, with the same cells and a gap from their checks
    for source, cells in (("x", 174), ("sqrt(x)", 165), ("(1-x)/x", 420)):
        for lam in (100, 470, 1900):
            case = cases[f"phase.{source}.lam={lam}"]
            assert case["cells"] == cells and case["rk_steps"] > 0 and case["ms"] > 0.0, (source, lam)
            sliver = cases[f"sliver.{source}.lam={lam}"]
            assert sliver["rk_steps"] == case["rk_steps"] and sliver["gap"] > 0.0, (source, lam)
            assert sliver["ms"] > 0.0, (source, lam)
    for name in ("x.31", "sqrt(x).31", "(1-x)/x.6"):
        assert cases[f"ends.{name}"]["ms"] > 0.0, name
    for name in ("2+sin(x).23", "(1+x)^(-4).23", "x.31", "sqrt(x).31", "(1-x)/x.8"):
        case = cases[f"lanes.{name}"]
        assert case["one_lane_ms"] > 0.0 and case["ratio"] == case["ms"] / case["one_lane_ms"], name
    # a conjecture-class round's traced peak stays within the round tests' 1.9 MB
    for name in ("x.31", "sqrt(x).31", "(1-x)/x.8"):
        assert 0.0 < cases[f"lanes.{name}"]["peak_kb"] <= 1900.0, name
    # the kernel alone: a block of at most about 4 096 lane-cells (x's 58
    # cells and their halves' first 58, 2+sin(x)'s 16 and 16), and exp(x)'s
    # 48 swept cells in one call; x's block also through the kernel of
    # --against's tree, when given, on the same cells
    for name, lane_cells in (("x.31", 31 * 116), ("x.31.same", 31 * 116), ("2+sin(x).60", 60 * 32), ("exp(x).1", 48)):
        case = cases[f"transfer.{name}"]
        assert case["lane_cells"] == lane_cells, name
        assert case["ns_per_lane_cell"] == 1e6 * case["ms"] / lane_cells > 0.0, name
    for source in ("2+sin(x)", "1.2+sin(3*x)", "exp(x)", "(1+x)^(-4)"):
        assert cases[f"lg_data.{source}"]["ms"] > 0.0, source
    # D: 16 equal segments, 30 nodes each, on the theorem class; the octaves
    # of a quarter of [0, 1] at each singular end on the conjecture class
    for source, evaluations in (("2+sin(x)", 480), ("exp(x)", 480)):
        assert cases[f"d.{source}"]["evaluations"] == evaluations, source
    for source in ("x", "(1-x)/x", "x/(1-x)"):
        assert 480 < cases[f"d.{source}"]["evaluations"] < 2000, source
    for source in ("2+sin(x)", "exp(x)", "x", "(1-x)/x", "x/(1-x)"):
        assert cases[f"d.{source}"]["ms"] > 0.0, source
    # mesh builds with their batches: the conjecture class at three decades,
    # each in fewer batches than bisection level by level takes levels, and
    # one refinement test per batch
    for name, cells, levels in (
        ("x.decade=-10", 43, 6), ("x", 58, 6), ("x.decade=-12", 82, 7),
        ("sqrt(x).decade=-10", 42, 7), ("sqrt(x)", 55, 7), ("sqrt(x).decade=-12", 75, 7),
        ("(1-x)/x.decade=-10", 103, 16), ("(1-x)/x", 140, 16), ("(1-x)/x.decade=-12", 190, 16),
    ):
        case = cases[f"build_mesh.{name}"]
        assert case["cells"] == cells and 1 <= case["batches"] < levels and case["ms"] > 0.0, name
    for source in ("2+sin(x)", "1.2+sin(3*x)", "exp(x)"):
        assert cases[f"build_mesh.{source}"]["batches"] >= 1, source
    for name, case in cases.items():
        if name.startswith("build_mesh."):
            assert case["mismatches"] == case["batches"], name
    # a one-shot count builds its mesh
    fresh = cases["count.(1-x)/x.lam=300.fresh"]
    assert fresh["count"] > 0 and fresh["ms"] > 0.0
    # criterion 8's one-lane counts at rtol 1e-12 sweep the built mesh and its halves
    for name, cells in (("2+sin(x).lam=10", 72), ("2+sin(x).lam=30", 72), ("x.lam=400", 246)):
        case = cases[f"count.{name}.rtol=1e-12"]
        assert case["cells"] == cells and case["count"] > 0 and case["ms"] > 0.0, name
    # counts-transform's queries at seed 1: 34 potentials, 8 counts each
    assert cases["count.criterion3.rtol=1e-10"]["queries"] == 272
    assert cases["count.criterion3.rtol=1e-10"]["ms"] > 0.0
    # the CLI's parser built and read on the benchmark's argvs, by subcommand
    for sub, argvs in (("jumps", 4), ("verify", 1), ("count", 1)):
        case = cases[f"cli.parse.{sub}"]
        assert case["argvs"] == argvs and case["ms"] > 0.0, sub
    assert cases["src_lines"]["lines"] > 1000


def test_bench_layers_times_a_second_tree_beside_this_one(tmp_path):
    # --against imports a checkout's package under another name; here the
    # repository itself, so both trees run the same code
    out = tmp_path / "bench.json"
    proc = run_script("bench_layers.py", "--out", str(out), "--repeat", "1", "--against", str(ROOT))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["against"] == str(ROOT)
    cases = report["cases"]
    assert cases["phase.2+sin(x).lam=10"]["cells"] == 48 and cases["src_lines"]["lines"] > 1000
    for name, case in cases.items():
        kind = name.split(".")[0]
        paired = kind in ("phase", "lanes", "ends", "transfer", "lg_data", "d", "build_mesh", "count", "cli")
        assert ("against_ratio" in case) == paired, name
        assert ("against_evaluations" in case) == (kind == "d"), name
        if paired:
            assert case["against_ms"] > 0.0 and case["against_ratio"] == case["ms"] / case["against_ms"], name
        # medians of alternating calls where the fastest run swings with the hour
        assert ("median_ratio" in case) == (kind in ("phase", "ends", "lg_data", "build_mesh", "count", "cli")), name
        if "median_ratio" in case:
            assert case["against_median_ms"] > 0.0, name
            assert case["median_ratio"] == case["median_ms"] / case["against_median_ms"], name
        if kind == "build_mesh":  # the same tree on both sides: the same batches and tests
            assert case["batches"] == case["against_batches"] >= 1, name
            assert case["mismatches"] == case["against_mismatches"] >= 1, name
        # a build's median_ratio again in three fresh processes: their median and [min, max]
        assert ("fresh_median_ratio" in case) == (kind == "build_mesh"), name
        if kind == "build_mesh":
            low, high = case["fresh_median_ratio_range"]
            assert 0.0 < low <= case["fresh_median_ratio"] <= high, name
        # the kernel per lane-cell, each tree on its own mesh's cells
        assert ("ns_ratio" in case) == (kind == "transfer"), name
        if kind == "transfer":
            assert case["against_lane_cells"] == case["lane_cells"], name
            assert case["ns_ratio"] == case["ns_per_lane_cell"] / case["against_ns_per_lane_cell"], name
