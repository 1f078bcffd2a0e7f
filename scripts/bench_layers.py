#!/usr/bin/env python3
"""Layer-by-layer timings with stable case names, written as one JSON file.

Cases (wall-clock milliseconds, the fastest of --repeat runs in one process:
the host's speed drifts by up to 2x over seconds, and the fastest run is
the steadiest figure):

* phase.2+sin(x).lam=L: one-lambda ``phase`` at rtol 1e-11, L = 10, 100, 1000;
* phase.<potential>.lam=L: the same on the conjecture class (x, sqrt(x),
  (1-x)/x on [0, 1]), L = 100, 470, 1900;
* sliver.<potential>.lam=L: the end slivers of those calls alone
  (``oscillation._ends``: the Bessel seeds, their halving checks and the
  RK45 to the bulk's edges), with their RK45 steps and summed gaps;
* lanes.<potential>.23: one batched round of 23 couplings
  (``oscillation._phases``) on 2+sin(x) and (1+x)^(-4), against 23
  one-lane ``phase`` calls at the same couplings, the two run alternately;
* lanes.<potential>.<k>: the same on the conjecture class at the
  couplings of its jump tables, 31 lanes on x and sqrt(x) (n = 70..100)
  and 6 on (1-x)/x (n = 95..100), with the round's tracemalloc peak;
* lg_data.<potential>: the Liouville-Green data on the 512-point grid;
* build_mesh.<potential>: the cell mesh at rtol decade -11, built afresh;
* jump_sequence.2+sin(x).1-500: criterion 4's table on one worker;
* src_lines: the lines of the Python files under src/.

Counts that explain the times (mesh cells, cells swept, phase calls per
root) go beside them.  Usage: bench_layers.py --out BENCH_<n>.json
"""

import argparse
import json
import platform
import time
import tracemalloc
from pathlib import Path

import numpy as np

from sturmjumps import oscillation, propagator
from sturmjumps.jumps import jump_sequence
from sturmjumps.liouville_green import lg_data
from sturmjumps.potential import Potential, Regularity

ROOT = Path(__file__).resolve().parent.parent
SINE = ("2+sin(x)", 0.0, 3.0)
MESHES = [
    ("x", 1.0, 0.0),
    ("sqrt(x)", 0.5, 0.0),
    ("(1-x)/x", -1.0, 1.0),
    ("2+sin(x)", None, None),
    ("1.2+sin(3*x)", None, None),
    ("exp(x)", None, None),
]
SINGULAR = MESHES[:3]
# conjecture-class rounds: the couplings of the jump table's first round, lambda_n for its n
ROUNDS = [(MESHES[0], 329.5, 470.8, 31), (MESHES[1], 274.7, 392.5, 31), (MESHES[2], 190.3, 200.3, 6)]
LG_DATA = ["2+sin(x)", "1.2+sin(3*x)", "exp(x)", "(1+x)^(-4)"]


def potential(source, gamma_a=None, gamma_b=None):
    if gamma_a is None:
        b = 3.0 if "sin" in source else 1.0
        return Potential.from_formula(source, 0.0, b)
    return Potential.from_formula(source, 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=gamma_a, gamma_b=gamma_b)


def fastest_ms(run, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times)


def fastest_pair_ms(run_a, run_b, repeat):
    """fastest_ms of two runs, taken alternately so that both see the same drift of the host."""
    times_a, times_b = [], []
    for _ in range(repeat):
        for run, times in ((run_a, times_a), (run_b, times_b)):
            t0 = time.perf_counter()
            run()
            times.append(time.perf_counter() - t0)
    return 1e3 * min(times_a), 1e3 * min(times_b)


def peak_kb(run):
    """The tracemalloc peak of one run, in KB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e3
    finally:
        tracemalloc.stop()


def lanes_case(q, lams, repeat):
    """One round of lanes against one-lane calls at the same couplings, its mesh built outside the timing."""
    oscillation._phases(q, lams, 1e-11)
    ms, one_lane = fastest_pair_ms(
        lambda: oscillation._phases(q, lams, 1e-11),
        lambda: [oscillation.phase(q, lam, rtol=1e-11) for lam in lams],
        repeat,
    )
    return {"ms": ms, "ms_per_lane": ms / len(lams), "one_lane_ms": one_lane, "ratio": ms / one_lane}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeat", type=int, default=15, help="runs per case (the sequence takes a third as many)")
    args = ap.parse_args()
    repeat = max(args.repeat, 1)
    cases = {}

    p = Potential.from_formula(*SINE)
    for lam in (10.0, 100.0, 1000.0):
        res = oscillation.phase(p, lam, rtol=1e-11)
        ms = fastest_ms(lambda: oscillation.phase(p, lam, rtol=1e-11), repeat)
        cases[f"phase.2+sin(x).lam={lam:g}"] = {"ms": ms, "cells": res.cells}

    for source, gamma_a, gamma_b in SINGULAR:
        q = potential(source, gamma_a, gamma_b)
        for lam in (100.0, 470.0, 1900.0):
            res = oscillation.phase(q, lam, rtol=1e-11)
            ms = fastest_ms(lambda: oscillation.phase(q, lam, rtol=1e-11), repeat)
            cases[f"phase.{source}.lam={lam:g}"] = {"ms": ms, "cells": res.cells, "rk_steps": res.steps}
            x_l, x_r = propagator.bulk_interval(q)
            ends = (q, lam, 1e-11, x_l, x_r, propagator.bulk_mesh(q, 1e-11).length)
            _, _, steps, _, gap = oscillation._ends(*ends)
            ms = fastest_ms(lambda: oscillation._ends(*ends), repeat)
            cases[f"sliver.{source}.lam={lam:g}"] = {"ms": ms, "rk_steps": steps, "gap": gap}

    lams = np.geomspace(5.0, 40.0, 23).tolist()
    for source in ("2+sin(x)", "(1+x)^(-4)"):
        cases[f"lanes.{source}.23"] = lanes_case(potential(source), lams, repeat)
    for (source, gamma_a, gamma_b), lo, hi, count in ROUNDS:
        q = potential(source, gamma_a, gamma_b)
        lams = np.linspace(lo, hi, count).tolist()
        case = lanes_case(q, lams, repeat)
        case["peak_kb"] = peak_kb(lambda: oscillation._phases(q, lams, 1e-11))
        cases[f"lanes.{source}.{count}"] = case

    for source in LG_DATA:
        q = potential(source)
        lg_data(q)  # the first call compiles the potential's evaluators
        cases[f"lg_data.{source}"] = {"ms": fastest_ms(lambda: lg_data(q), repeat)}

    for source, gamma_a, gamma_b in MESHES:
        q = potential(source, gamma_a, gamma_b)
        interval = propagator.bulk_interval(q)
        mesh = propagator.build_mesh(q, -11, *interval)
        ms = fastest_ms(lambda: propagator.build_mesh(q, -11, *interval), repeat)
        cases[f"build_mesh.{source}"] = {"ms": ms, "cells": mesh.cells}

    p = Potential.from_formula(*SINE)
    records = jump_sequence(p, 1, 500)
    ms = fastest_ms(lambda: jump_sequence(p, 1, 500), max(repeat // 3, 1))
    calls = sum(r.phase_calls for r in records)
    cases["jump_sequence.2+sin(x).1-500"] = {"ms": ms, "phase_calls_per_root": calls / len(records)}

    cases["src_lines"] = {"lines": sum(len(f.read_text().splitlines()) for f in sorted((ROOT / "src").rglob("*.py")))}

    report = {
        "host": {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()},
        "repeat": repeat,
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, values in cases.items():
        print(name, " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in values.items()))


if __name__ == "__main__":
    main()
