#!/usr/bin/env python3
"""Layer-by-layer timings with stable case names, written as one JSON file.

Cases (wall-clock milliseconds, the fastest of --repeat runs in one process:
the host's speed drifts by up to 2x over seconds, and the fastest run is
the steadiest figure):

* phase.2+sin(x).lam=L: one-lambda ``phase`` at rtol 1e-11, L = 10, 100, 1000;
* phase.<potential>.lam=L: the same on the conjecture class (x, sqrt(x),
  (1-x)/x on [0, 1]), L = 100, 470, 1900;
* sliver.<potential>.lam=L: the end slivers of those calls alone
  (``oscillation._ends`` on one lane: the Bessel seeds, their halving
  checks and the collocation cells to the bulk's edges), with their
  cells (``rk_steps``, the phase's name for them) and summed gaps;
* ends.<potential>.<k>: the end slivers of a round alone, one
  ``oscillation._ends`` call for all lanes, 31 on x and sqrt(x)
  (n = 70..100) and 6 on (1-x)/x (n = 95..100); PATH's slivers, with
  --against, run lane by lane where its ``_ends`` takes one coupling;
* lanes.<potential>.23: one batched round of 23 couplings
  (``oscillation._phases``) on 2+sin(x) and (1+x)^(-4), against 23
  one-lane ``phase`` calls at the same couplings, the two run alternately;
* lanes.<potential>.<k>: the same on the conjecture class at the
  couplings of its jump tables, 31 lanes on x and sqrt(x) (n = 70..100)
  and 8 on (1-x)/x (n = 93..100, enough lanes to be batched), with the
  round's tracemalloc peak;
* transfer.<potential>.<k>: the cell-transfer kernel alone, with its
  lane-cells and ns per lane-cell: one block of a round's first sweep
  (``propagator._transfers``, 31 lanes on x at n = 70..100 and 60 lanes
  on 2+sin(x) at lambda 3..41, at most about 4 096 lane-cells each), and
  one one-lane call (``propagator._transfer``) on every swept cell of
  exp(x) at lambda = 30; each tree's kernel takes that tree's cell
  arrays (``cell_arrays``), and with --against, where the trees' meshes
  differ, the case also holds PATH's lane-cells, its ns per lane-cell
  and ``ns_ratio``, ours over PATH's; transfer.x.31.same runs this
  tree's x block through both trees' kernels, the same cells on each;
* lg_data.<potential>: the Liouville-Green data on the 512-point grid;
* d.<potential>: the phase length D, ``integrate_sqrt_v`` over the whole
  interval, on 2+sin(x) ([0, 3]), exp(x), x, (1-x)/x and x/(1-x), with
  its V evaluations (and PATH's, ``against_evaluations``);
* build_mesh.<potential>: the cell mesh at rtol decade -11, built afresh,
  with its cells, its batches (``propagator._cells`` calls) and its
  refinement tests (``propagator._mismatches`` calls; with --against,
  PATH's as ``against_batches`` and ``against_mismatches``); on the
  conjecture class also build_mesh.<potential>.decade=-10 and -12;
* count.(1-x)/x.lam=300.fresh: one ``count_negative`` at rtol 1e-10 on a
  new Potential, so that the call builds its mesh;
* count.<potential>.lam=L.rtol=1e-12: one one-lane ``count_negative`` at
  rtol 1e-12 with the mesh built, criterion 8's check beside each root
  (2+sin(x) at L = 10 and 30, x at L = 400), with the cells it sweeps;
* count.criterion3.rtol=1e-10: the median per-call ms of the
  counts-transform workload's 272 queries at seed 1, one-lane
  ``count_negative`` at rtol 1e-10 on built meshes: its 32 criterion-3
  draws c0 + c1 sin(c2 x) on [0, L], exp(x) and (1+x)^(-4), 8 counts
  each from 4 to 1000 on a log scale (``queries``), each query's fastest
  call and, with --against, its median of alternating calls;
* jump_sequence.2+sin(x).1-500: criterion 4's table on one worker;
* cli.parse.<sub>: ``cli.build_parser(argv).parse_args(argv)`` on every
  argv of one subcommand that the benchmark's jump workloads pass (jumps:
  the four tables of jumps-smooth and jumps-singular; verify: the
  conjecture suite) and on one count argv, ms for the whole list, its
  length as ``argvs``; PATH's ``build_parser``, with --against, may take
  no argv and build every subcommand;
* src_lines: the lines of the Python files under src/.

Counts that explain the times (mesh cells, cells swept, phase calls per
root) go beside them.  With --against PATH, PATH's src/sturmjumps is
imported too, as the package ``against``, and every phase.*, lanes.*,
ends.*, transfer.*, lg_data.*, d.*, build_mesh.*, count.* and cli.* case runs on both trees
in turn in this process, so that both see the same drift of the host; the
case then also holds ``against_ms`` and ``against_ratio``, its ms over
PATH's.  The fastest of a few runs swings with the hour, so the phase.*,
ends.*, lg_data.*, build_mesh.*, count.* and cli.* cases also hold ``median_ratio``: the median of
calls on this tree over the median on PATH's, the calls alternating
between the trees and which goes first, 200 per tree at the default
--repeat of 15 and in proportion to --repeat otherwise.  A build's
median_ratio swings between whole runs by more than the effects it is
read for, so with --against the build_mesh.* cases also run in three
fresh processes (--builds-only), the trees' order alternating between
them, and hold the median of the three processes' median_ratio as
``fresh_median_ratio`` and their [min, max] as ``fresh_median_ratio_range``.

Usage: bench_layers.py --out BENCH_<n>.json [--against PATH] [--repeat N]
"""

import argparse
import importlib
import importlib.util
import inspect
import json
import math
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
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
ROUNDS = [(MESHES[0], 329.5, 470.8, 31), (MESHES[1], 274.7, 392.5, 31), (MESHES[2], 186.3, 200.3, 8)]
# the slivers of such rounds alone
ENDS = [(MESHES[0], 329.5, 470.8, 31), (MESHES[1], 274.7, 392.5, 31), (MESHES[2], 190.3, 200.3, 6)]
# kernel blocks: a round's lanes on the first columns of its first sweep, coarse cells beside halves
TRANSFER_BLOCKS = [(MESHES[0], 329.5, 470.8, 31), (("2+sin(x)",), 3.0, 41.0, 60)]
LG_DATA = ["2+sin(x)", "1.2+sin(3*x)", "exp(x)", "(1+x)^(-4)"]
# D on the theorem class and on each kind of singular end: V vanishing at a, blowing up at a, blowing up at b
D_CASES = [("2+sin(x)",), ("exp(x)",), MESHES[0], MESHES[2], ("x/(1-x)", 1.0, -1.0)]
# one-lane counts at rtol 1e-12 on built meshes, as criterion 8 checks the roots of a jump table
COUNTS = [(("2+sin(x)",), 10.0), (("2+sin(x)",), 30.0), (MESHES[0], 400.0)]
# the argvs the benchmark's jump workloads pass to the CLI, by subcommand, and one count
PARSE_ARGVS = {
    "jumps": [
        ["jumps", "--potential", "2+sin(x)", "--a", "0.0", "--b", "3.0", "--n-min", "1", "--n-max", "60", "--threads", "1"],
        ["jumps", "--potential", "(1+x)^(-4)", "--a", "0.0", "--b", "1.0", "--n-min", "1", "--n-max", "80", "--threads", "1"],
        ["jumps", "--potential", "x", "--a", "0", "--b", "1", "--class", "conjecture", "--gamma-a", "1.0",
         "--gamma-b", "0.0", "--n-min", "70", "--n-max", "100", "--threads", "1"],
        ["jumps", "--potential", "sqrt(x)", "--a", "0", "--b", "1", "--class", "conjecture", "--gamma-a", "0.5",
         "--gamma-b", "0.0", "--n-min", "70", "--n-max", "100", "--threads", "1"],
    ],
    "verify": [
        ["verify", "--suite", "conjecture", "--potential", "(1-x)/x", "--a", "0", "--b", "1", "--class", "conjecture",
         "--gamma-a", "-1.0", "--gamma-b", "1.0", "--n-min", "95", "--n-max", "100", "--threads", "1"],
    ],
    "count": [["count", "--potential", "2+sin(x)", "--a", "0", "--b", "3", "--lambda", "10", "--rtol", "1e-12"]],
}


class Tree:
    """The modules of one checkout's package, imported as ``package``."""

    def __init__(self, package):
        for name in ("oscillation", "propagator", "jumps", "liouville_green", "quadrature", "cli"):
            setattr(self, name, importlib.import_module(f"{package}.{name}"))
        self.potential_module = importlib.import_module(f"{package}.potential")

    def potential(self, source, gamma_a=None, gamma_b=None):
        Potential = self.potential_module.Potential
        if gamma_a is None:
            b = 3.0 if "sin" in source else 1.0
            return Potential.from_formula(source, 0.0, b)
        regularity = self.potential_module.Regularity.CONJECTURE
        return Potential.from_formula(source, 0.0, 1.0, regularity=regularity, gamma_a=gamma_a, gamma_b=gamma_b)


def load_against(path):
    """PATH's src/sturmjumps, imported as the package ``against`` beside this tree's."""
    init = Path(path).resolve() / "src" / "sturmjumps" / "__init__.py"
    spec = importlib.util.spec_from_file_location("against", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["against"] = package
    spec.loader.exec_module(package)
    return Tree("against")


def fastest_ms(runs, repeat):
    """The fastest of ``repeat`` runs of each callable, taken in turn so that all see the same drift of the host."""
    times = [[] for _ in runs]
    for _ in range(repeat):
        for run, spent in zip(runs, times):
            t0 = time.perf_counter()
            run()
            spent.append(time.perf_counter() - t0)
    return [1e3 * min(spent) for spent in times]


def median_ms(runs, calls):
    """The median ms of ``calls`` calls of each callable, alternating between them and which goes first."""
    times = [[] for _ in runs]
    for k in range(calls):
        for run, spent in (zip(runs, times) if k % 2 == 0 else reversed(list(zip(runs, times)))):
            t0 = time.perf_counter()
            run()
            spent.append(time.perf_counter() - t0)
    return [1e3 * float(np.median(spent)) for spent in times]


def with_against(case, ms, others, runs=(), calls=0):
    """The case, with PATH's ms and the ratio to it when --against ran ``others``.

    Given both trees' ``runs`` and ``calls``, also the medians of that many
    alternating calls on each and their ratio.
    """
    if others:
        case["against_ms"] = others[0]
        case["against_ratio"] = ms / others[0]
        if calls:
            case["median_ms"], case["against_median_ms"] = median_ms(runs, calls)
            case["median_ratio"] = case["median_ms"] / case["against_median_ms"]
    return case


def calls_of(tree, name, build):
    """The calls of ``propagator.<name>`` that one ``build()`` on the tree makes."""
    function, calls = getattr(tree.propagator, name), []

    def counted(*args):
        calls.append(1)
        return function(*args)

    setattr(tree.propagator, name, counted)
    try:
        build()
    finally:
        setattr(tree.propagator, name, function)
    return len(calls)


def peak_kb(run):
    """The tracemalloc peak of one run, in KB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e3
    finally:
        tracemalloc.stop()


def phase_case(trees, spec, lam, repeat):
    """One-lane ``phase`` on each tree, its mesh built outside the timing.

    Returns our potential and result, the ms and both trees' runs.
    """
    potentials = [tree.potential(*spec) for tree in trees]
    results = [tree.oscillation.phase(q, lam, rtol=1e-11) for tree, q in zip(trees, potentials)]
    runs = [lambda tree=tree, q=q: tree.oscillation.phase(q, lam, rtol=1e-11) for tree, q in zip(trees, potentials)]
    ms, *others = fastest_ms(runs, repeat)
    return potentials[0], results[0], ms, others, runs


def ends_runs(tree, q, lams, rtol=1e-11):
    """A call of the tree's ``oscillation._ends`` on all of ``lams``, lane by lane where it takes one coupling."""
    x_l, x_r = tree.propagator.bulk_interval(q)
    args = (rtol, x_l, x_r, tree.propagator.bulk_mesh(q, rtol).length)
    ends = tree.oscillation._ends
    if "lams" in inspect.signature(ends).parameters:
        return lambda: ends(q, lams, *args)
    return lambda: [ends(q, lam, *args) for lam in lams]


def parse_run(tree, argvs):
    """One build and parse of every argv by the tree's CLI parser; a ``build_parser`` without argv builds them all."""
    build = tree.cli.build_parser
    takes_argv = bool(inspect.signature(build).parameters)

    def run():
        for argv in argvs:
            (build(argv) if takes_argv else build()).parse_args(argv)

    return run


def build_mesh_case(trees, spec, decade, repeat, calls):
    """One mesh build afresh on each tree at ``decade``: the ms, cells, batches and ``_mismatches`` calls."""
    runs = []
    for tree in trees:
        q = tree.potential(*spec)
        interval = tree.propagator.bulk_interval(q)
        runs.append(lambda tree=tree, q=q, interval=interval: tree.propagator.build_mesh(q, decade, *interval))
    case = {"cells": runs[0]().cells}
    for prefix, tree, run in zip(("", "against_"), trees, runs):
        case[f"{prefix}batches"] = calls_of(tree, "_cells", run)
        case[f"{prefix}mismatches"] = calls_of(tree, "_mismatches", run)
    ms, *others = fastest_ms(runs, repeat)
    case["ms"] = ms
    return with_against(case, ms, others, runs, calls)


def lanes_case(trees, spec, lams, repeat):
    """One round of lanes against one-lane calls at the same couplings, and the round on PATH's tree; our potential."""
    potentials = [tree.potential(*spec) for tree in trees]
    for tree, q in zip(trees, potentials):
        tree.oscillation._phases(q, lams, 1e-11)  # builds the mesh
    rounds = [lambda tree=tree, q=q: tree.oscillation._phases(q, lams, 1e-11) for tree, q in zip(trees, potentials)]
    ours, q = trees[0], potentials[0]
    one_lane = lambda: [ours.oscillation.phase(q, lam, rtol=1e-11) for lam in lams]
    ms, one_lane_ms, *others = fastest_ms([rounds[0], one_lane, *rounds[1:]], repeat)
    case = {"ms": ms, "ms_per_lane": ms / len(lams), "one_lane_ms": one_lane_ms, "ratio": ms / one_lane_ms}
    return with_against(case, ms, others), q


def cell_arrays(mesh):
    """The mesh's arguments in its tree's _transfer order: ``mesh.arrays`` where the tree has it, else h, ubar, c1, c2."""
    return getattr(mesh, "arrays", None) or (mesh.h, mesh.ubar, mesh.c1, mesh.c2)


def take_cells(arg, cells):
    """A _transfer argument at ``cells``: an array of one value per cell on its last axis, or a tuple of them."""
    return type(arg)(take_cells(a, cells) for a in arg) if isinstance(arg, tuple) else arg[..., cells]


def transfer_block_case(trees, spec, lams, repeat):
    """One _transfers block of the round ``lams`` on each tree: the ms, lane-cells and ns per lane-cell."""
    args = []
    for tree in trees:
        mesh = tree.propagator.bulk_mesh(tree.potential(*spec), 1e-11)
        n, width = mesh.cells, min(tree.propagator._BLOCK // (2 * len(lams)), mesh.cells)
        cells = np.concatenate([np.arange(width), np.arange(n, n + width)])
        lam2 = (np.array(lams) ** 2)[:, None]
        args.append((lam2, *(take_cells(q, cells) for q in cell_arrays(mesh))))
    runs = [lambda tree=tree, a=a: tree.propagator._transfers(*a) for tree, a in zip(trees, args)]
    return kernel_case(runs, [len(lams) * len(a[1]) for a in args], repeat)


def same_block_case(trees, spec, lams, repeat):
    """transfer_block_case's block of this tree's mesh through every tree's kernel, so that ns_ratio compares like for like."""
    mesh = trees[0].propagator.bulk_mesh(trees[0].potential(*spec), 1e-11)
    n, width = mesh.cells, min(trees[0].propagator._BLOCK // (2 * len(lams)), mesh.cells)
    cells = np.concatenate([np.arange(width), np.arange(n, n + width)])
    h, ubar, *c = (q[cells] for q in (mesh.h, mesh.ubar, mesh.c1, mesh.c2, mesh.c3, mesh.c4))
    lam2 = (np.array(lams) ** 2)[:, None]
    runs = []
    for tree in trees:
        prop = tree.propagator
        if hasattr(prop, "_cell_factors"):  # the kernel takes the cells' factors
            args = (h, ubar, prop._cell_factors(h, *c))
        else:  # the moments it reads: c1 .. c4, or c1 and c2 before the cells carried c3
            args = (h, ubar, *c[: 4 if "c3" in prop.CellMesh.__dataclass_fields__ else 2])
        runs.append(lambda prop=prop, args=args: prop._transfers(lam2, *args))
    return kernel_case(runs, [lam2.size * len(h)] * len(trees), repeat)


def one_lane_transfer_case(trees, source, lam, repeat):
    """One one-lane _transfer over every swept cell of the mesh, as ``phase`` calls it."""
    meshes = [tree.propagator.bulk_mesh(tree.potential(source), 1e-11) for tree in trees]
    runs = [
        lambda tree=tree, m=m: tree.propagator._transfer(lam * lam, *cell_arrays(m))
        for tree, m in zip(trees, meshes)
    ]
    return kernel_case(runs, [len(m.h) for m in meshes], 10 * repeat)


def kernel_case(runs, lane_cells, repeat):
    """A kernel case from each tree's run and lane-cells; the trees' meshes, and so their lane-cells, may differ."""
    ms, *others = fastest_ms(runs, repeat)
    case = {"ms": ms, "lane_cells": lane_cells[0], "ns_per_lane_cell": 1e6 * ms / lane_cells[0]}
    if others:
        case["against_lane_cells"] = lane_cells[1]
        case["against_ns_per_lane_cell"] = 1e6 * others[0] / lane_cells[1]
        case["ns_ratio"] = case["ns_per_lane_cell"] / case["against_ns_per_lane_cell"]
    return with_against(case, ms, others)


def count_queries(trees, seed=1):
    """counts-transform's queries for ``seed``, one one-lane ``count_negative`` call per query on each tree, meshes built.

    The workload's own build gives the potentials (criterion 3's draws,
    exp(x) and (1+x)^(-4)) and each query's place on the log scale of
    counts; lambda follows from this tree's ``lg_data`` as the workload
    takes it.  The guard band is off, so no call raises.
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    workload = workloads.CountsTransform()
    inputs = workload.build(seed)
    lo, hi = workload.counts
    queries = [[] for _ in trees]
    for p, positions in zip(inputs["potentials"], inputs["positions"]):
        lg = trees[0].liouville_green.lg_data(p, 512)
        potentials = [tree.potential_module.Potential.from_formula(p.source, p.a, p.b) for tree in trees]
        for pos in positions:
            lam = max(math.pi * lo * (hi / lo) ** pos / lg.d, 1.1 * math.sqrt(lg.c))
            for tree, q, calls in zip(trees, potentials, queries):
                calls.append(lambda tree=tree, q=q, lam=lam: tree.oscillation.count_negative(q, lam, 1e-10, 0.0))
                calls[-1]()  # builds the mesh
    return queries


def query_case(queries, repeat, calls):
    """The median over queries of each query's fastest call, and with two trees of its median call.

    Each query runs ``repeat`` times on one tree; on two, max(repeat,
    calls) times on each, the trees alternating on every query and which
    goes first alternating from one round of queries to the next.
    """
    fastest = [[math.inf] * len(queries[0]) for _ in queries]
    spent = [[[] for _ in queries[0]] for _ in queries]
    trees = list(range(len(queries)))
    for k in range(max(repeat, calls) if len(queries) > 1 else repeat):
        for i in range(len(queries[0])):
            for t in trees if k % 2 == 0 else trees[::-1]:
                t0 = time.perf_counter()
                queries[t][i]()
                dt = time.perf_counter() - t0
                spent[t][i].append(dt)
                fastest[t][i] = min(fastest[t][i], dt)
    ms, *others = [1e3 * statistics.median(f) for f in fastest]
    case = with_against({"queries": len(queries[0]), "ms": ms}, ms, others)
    if others:
        case["median_ms"], case["against_median_ms"] = (1e3 * statistics.median(map(statistics.median, q)) for q in spent)
        case["median_ratio"] = case["median_ms"] / case["against_median_ms"]
    return case


def build_cases(trees, repeat, calls):
    """The build_mesh.* cases: the cell mesh at decade -11, and on the conjecture class at -10 and -12 too."""
    cases = {}
    for spec in MESHES:
        cases[f"build_mesh.{spec[0]}"] = build_mesh_case(trees, spec, -11, repeat, calls)
    for spec in SINGULAR:
        for decade in (-10, -12):
            cases[f"build_mesh.{spec[0]}.decade={decade}"] = build_mesh_case(trees, spec, decade, repeat, calls)
    return cases


def fresh_build_ratios(against, repeat, processes=3):
    """Each build_mesh.* case's median_ratio in ``processes`` fresh runs of this script, PATH's tree first in every other one."""
    ratios = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(processes):
            out = Path(tmp) / f"builds{k}.json"
            argv = [sys.executable, __file__, "--builds-only", "--out", str(out), "--against", against, "--repeat", str(repeat)]
            subprocess.run(argv + (["--against-first"] if k % 2 else []), check=True, stdout=subprocess.DEVNULL)
            for name, case in json.loads(out.read_text())["cases"].items():
                ratios.setdefault(name, []).append(case["median_ratio"])
    return ratios


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--repeat", type=int, default=15, help="runs per case (the sequence takes a third as many)")
    ap.add_argument("--against", metavar="PATH", help="a checkout whose paired cases run beside these")
    ap.add_argument("--builds-only", action="store_true", help="time only the build_mesh.* cases")
    ap.add_argument("--against-first", action="store_true", help="import PATH's tree first and time it first")
    args = ap.parse_args()
    repeat = max(args.repeat, 1)
    calls = max(1, 200 * repeat // 15)  # alternating calls per tree behind each median_ratio
    if args.against_first:
        against = load_against(args.against)
        trees = [Tree("sturmjumps"), against]
    else:
        trees = [Tree("sturmjumps")] + ([load_against(args.against)] if args.against else [])
    ours = trees[0]
    if args.builds_only:
        cases = build_cases(trees[::-1] if args.against_first else trees, repeat, calls)
        for case in cases.values():  # ours over PATH's, whichever tree went first
            if args.against_first and "median_ratio" in case:
                case["median_ratio"] = case["against_median_ms"] / case["median_ms"]
        Path(args.out).write_text(json.dumps({"cases": cases}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return
    cases = {}

    for lam in (10.0, 100.0, 1000.0):
        _, res, ms, others, runs = phase_case(trees, ("2+sin(x)",), lam, repeat)
        case = {"ms": ms, "cells": res.cells}
        cases[f"phase.2+sin(x).lam={lam:g}"] = with_against(case, ms, others, runs, calls)

    for spec in SINGULAR:
        for lam in (100.0, 470.0, 1900.0):
            q, res, ms, others, runs = phase_case(trees, spec, lam, repeat)
            case = {"ms": ms, "cells": res.cells, "rk_steps": res.steps}
            cases[f"phase.{spec[0]}.lam={lam:g}"] = with_against(case, ms, others, runs, calls)
            run = ends_runs(ours, q, [lam])
            _, _, steps, _, gap = run()[0]
            cases[f"sliver.{spec[0]}.lam={lam:g}"] = {"ms": fastest_ms([run], repeat)[0], "rk_steps": steps, "gap": gap}
    for spec, lo, hi, count in ENDS:
        lams = np.linspace(lo, hi, count).tolist()
        runs = [ends_runs(tree, tree.potential(*spec), lams) for tree in trees]
        for run in runs:
            run()  # each tree builds its ladders here
        ms, *others = fastest_ms(runs, repeat)
        cases[f"ends.{spec[0]}.{count}"] = with_against({"ms": ms}, ms, others, runs, calls)

    lams = np.geomspace(5.0, 40.0, 23).tolist()
    for source in ("2+sin(x)", "(1+x)^(-4)"):
        cases[f"lanes.{source}.23"] = lanes_case(trees, (source,), lams, repeat)[0]
    for spec, lo, hi, count in ROUNDS:
        lams = np.linspace(lo, hi, count).tolist()
        case, q = lanes_case(trees, spec, lams, repeat)
        case["peak_kb"] = peak_kb(lambda: ours.oscillation._phases(q, lams, 1e-11))
        cases[f"lanes.{spec[0]}.{count}"] = case

    for spec, lo, hi, count in TRANSFER_BLOCKS:
        lams = np.linspace(lo, hi, count).tolist()
        cases[f"transfer.{spec[0]}.{count}"] = transfer_block_case(trees, spec, lams, repeat)
    spec, lo, hi, count = TRANSFER_BLOCKS[0]
    cases[f"transfer.{spec[0]}.{count}.same"] = same_block_case(trees, spec, np.linspace(lo, hi, count).tolist(), repeat)
    cases["transfer.exp(x).1"] = one_lane_transfer_case(trees, "exp(x)", 30.0, repeat)

    for source in LG_DATA:
        runs = []
        for tree in trees:
            q = tree.potential(source)
            tree.liouville_green.lg_data(q)  # the first call compiles the potential's evaluators
            runs.append(lambda tree=tree, q=q: tree.liouville_green.lg_data(q))
        ms, *others = fastest_ms(runs, repeat)
        cases[f"lg_data.{source}"] = with_against({"ms": ms}, ms, others, runs, calls)

    for spec in D_CASES:
        runs = []
        for tree in trees:
            q = tree.potential(*spec)
            runs.append(lambda tree=tree, q=q: tree.quadrature.integrate_sqrt_v(q, q.a, q.b))
        evaluations = [run().evaluations for run in runs]  # the first call compiles the potential's evaluators
        ms, *others = fastest_ms(runs, repeat)
        case = {"ms": ms, "evaluations": evaluations[0]}
        if others:
            case["against_evaluations"] = evaluations[1]
        cases[f"d.{spec[0]}"] = with_against(case, ms, others)

    cases.update(build_cases(trees, repeat, calls))
    if args.against:
        for name, ratios in fresh_build_ratios(args.against, repeat).items():
            cases[name]["fresh_median_ratio"] = statistics.median(ratios)
            cases[name]["fresh_median_ratio_range"] = [min(ratios), max(ratios)]

    # a one-shot answer: the Potential is new, so the call builds its mesh
    runs = [
        lambda tree=tree: tree.oscillation.count_negative(tree.potential(*MESHES[2]), 300.0, rtol=1e-10)
        for tree in trees
    ]
    count = runs[0]()
    ms, *others = fastest_ms(runs, repeat)
    cases["count.(1-x)/x.lam=300.fresh"] = with_against({"ms": ms, "count": count}, ms, others, runs, calls)

    for spec, lam in COUNTS:
        potentials = [tree.potential(*spec) for tree in trees]
        runs = [
            lambda tree=tree, q=q: tree.oscillation.count_negative(q, lam, rtol=1e-12, jump_guard=1e-9)
            for tree, q in zip(trees, potentials)
        ]
        count = [run() for run in runs][0]  # each tree builds its mesh here
        case = {"count": count, "cells": ours.oscillation.phase(potentials[0], lam, rtol=1e-12).cells}
        ms, *others = fastest_ms(runs, repeat)
        case["ms"] = ms
        cases[f"count.{spec[0]}.lam={lam:g}.rtol=1e-12"] = with_against(case, ms, others, runs, calls)

    cases["count.criterion3.rtol=1e-10"] = query_case(count_queries(trees), repeat, max(calls // 10, 3))

    for sub, argvs in PARSE_ARGVS.items():
        runs = [parse_run(tree, argvs) for tree in trees]
        ms, *others = fastest_ms(runs, repeat)
        cases[f"cli.parse.{sub}"] = with_against({"ms": ms, "argvs": len(argvs)}, ms, others, runs, calls)

    p = ours.potential("2+sin(x)")
    records = ours.jumps.jump_sequence(p, 1, 500)
    ms = fastest_ms([lambda: ours.jumps.jump_sequence(p, 1, 500)], max(repeat // 3, 1))[0]
    phase_calls = sum(r.phase_calls for r in records)
    cases["jump_sequence.2+sin(x).1-500"] = {"ms": ms, "phase_calls_per_root": phase_calls / len(records)}

    cases["src_lines"] = {"lines": sum(len(f.read_text().splitlines()) for f in sorted((ROOT / "src").rglob("*.py")))}

    report = {
        "host": {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine()},
        "repeat": repeat,
        "cases": cases,
    }
    if args.against:
        report["against"] = args.against
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, values in cases.items():
        print(name, " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in values.items()))


if __name__ == "__main__":
    main()
