"""Benchmark for sturmjumps: jump tables and counts, checked against references.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  Each run starts ``SETUP_PROBES`` fresh processes that only set
up (their median, with the measuring process's own set-up, is
``setup_s``), then one fresh process that runs timed passes for
``--seconds`` and checks every answer (see worker.py and workloads.py).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The run
environment, the sample counts and any failure messages go to stderr.
The exit code is 0 when every check passed, 1 when a check failed and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 4
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "cpu_model": None,
        "cache_size": None,
    }
    try:
        import numpy

        env["numpy"] = numpy.__version__
    except ImportError:
        env["numpy"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and env["cpu_model"] is None:
                    env["cpu_model"] = value.strip()
                elif key == "cache size" and env["cache_size"] is None:
                    env["cache_size"] = value.strip()
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    env["src_lines"] = src_lines
    return env


def worker(args, extra, timeout):
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), *extra],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=timeout,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sturmjumps", "__init__.py")):
        return fail(f"no sturmjumps package under {os.path.join(ROOT, 'src')}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    start = time.monotonic()
    env = environment()
    print(f"perfbench: env {json.dumps(env)}", file=sys.stderr)
    try:
        setups = [worker(args, ["--setup-only"], 60.0)["setup_s"] for _ in range(SETUP_PROBES)]
        remaining = DEADLINE_S - (time.monotonic() - start)
        res = worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], remaining)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        return fail(str(exc))
    setups.append(res["setup_s"])

    print(
        f"perfbench: workload {args.workload} seed {args.seed}: {res['passes']} untraced passes "
        f"(median wall {res['pass_wall_s']:.3f} s), "
        f"{res['count_samples']} N(lambda) latency samples, "
        f"fail_frac {res['failed'] / res['attempted']:.3g} ({res['failed']}/{res['attempted']})",
        file=sys.stderr,
    )
    for line in res["messages"] + res["notes"]:
        print(f"perfbench: {line}", file=sys.stderr)

    # names and units come from BENCHMARK.json, so the two cannot drift apart
    if args.trace:
        specs, values = spec["per_layer"], res["per_layer"]
    else:
        specs, values = spec["end_to_end"], dict(res["metrics"], setup_s=statistics.median(setups))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
