"""One benchmark process: set up a workload, run timed passes, check them.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts it in a fresh interpreter, so ``setup_s`` covers the
import of ``sturmjumps`` and the building of the workload's potentials,
and ``peak_rss_mb`` is this process's own peak.  Times are in reference
seconds (see clock.py).  The result is one JSON line on stdout.

With ``--trace 1`` half of the time goes to untraced passes and half to
traced ones; the per-layer metrics come from the traced passes only, and
counts and busy times are per pass.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

from clock import REFERENCE_S, Clock, calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def percentile(values, q):
    """The q-th percentile (q in 1..99) by statistics.quantiles' default method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def timed_passes(wl, inputs, tally, tracer, budget):
    """Passes until the next one would overrun ``budget`` seconds; at least two.

    Returns the outputs, the clock holding the scaled timings and the wall
    time of each pass.
    """
    clock, outputs, walls = Clock(), [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outputs.append(wl.run_pass(inputs, tally, tracer, clock))
        clock.end_pass()
        walls.append(time.perf_counter() - t0)
        if len(walls) >= 2 and time.perf_counter() - start + walls[-1] > budget:
            return outputs, clock, walls


def value_ns(potentials):
    """ns per compiled V(x) call, from an untraced loop over interior points."""
    from sturmjumps import compile_value

    per_potential = []
    for p in potentials:
        fn = compile_value(p.ast)
        xs = [p.a + (p.b - p.a) * (k + 0.5) / 2000 for k in range(2000)]
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for x in xs:
                fn(x)
            best = min(best, (time.perf_counter_ns() - t0) / len(xs))
        per_potential.append(best)
    return statistics.median(per_potential)


def layer_metrics(tracer, passes, extra):
    from tracing import span_table

    by, children = span_table(tracer.spans)
    c = tracer.counters

    def calls(name):
        return len(by[name]["dur"]) if name in by else 0

    def busy(name):
        return sum(by[name]["dur"]) if name in by else 0.0

    def self_time(name):
        return sum(by[name]["self"]) if name in by else 0.0

    def ms(name, q):
        return 1e3 * percentile(by[name]["dur"], q) if name in by else 0.0

    steps = c["rk_steps"] / passes
    rejected = c["rk_rejected"] / passes
    attempts = steps + rejected
    value_calls = tracer.value_calls / passes
    roots = calls("jumps.find_jump")
    phase = "oscillation.phase"
    return {
        "expr.value_ns": extra["value_ns"],
        "expr.value_calls": value_calls,
        "expr.value_calls_per_step": value_calls / attempts if attempts else 0.0,
        "expr.jet2_calls": calls("expr.eval_jet2") / passes,
        "expr.jet2_s": busy("expr.eval_jet2") / passes,
        "quadrature.calls": calls("quadrature.integrate_sqrt_v") / passes,
        "quadrature.evals": c["quad_evals"] / passes,
        "quadrature.busy_s": busy("quadrature.integrate_sqrt_v") / passes,
        "liouville_green.lg_s": self_time("liouville_green.lg_data") / passes,
        "liouville_green.bracket_calls": calls("liouville_green.count_bracket") / passes,
        "oscillation.phase_calls": calls(phase) / passes,
        "oscillation.rk_steps": steps,
        "oscillation.rk_rejected": rejected,
        "oscillation.accept_ratio": steps / attempts if attempts else 0.0,
        "oscillation.busy_s": busy(phase) / passes,
        "oscillation.us_per_step": 1e6 * busy(phase) / passes / attempts if attempts else 0.0,
        "oscillation.phase_ms_p50": ms(phase, 50),
        "oscillation.phase_ms_p90": ms(phase, 90),
        "oscillation.at_jump_retries": c["at_jump_retries"] / passes,
        "jumps.roots": roots / passes,
        "jumps.phase_calls_per_root": children[("jumps.find_jump", phase)] / roots if roots else 0.0,
        "jumps.find_jump_ms_p50": ms("jumps.find_jump", 50),
        "jumps.find_jump_ms_p90": ms("jumps.find_jump", 90),
        "jumps.self_s": self_time("jumps.find_jump") / passes,
        "jumps.reported_residual_over_tol_max": c["residual_over_tol_max"],
        "jumps.pool_busy_frac": extra["pool_busy_frac"],
        "jumps.w2_lambda_gap_max": extra["lambda_gap"],
        "asymptotics.fit_s": busy("asymptotics.conjecture_fit") / passes,
        "cli.self_s": self_time("cli.main") / passes,
        "potential.build_s": extra["build_s"],
        "spectra_oracle.calls": extra["oracle"][0],
        "spectra_oracle.busy_s": extra["oracle"][1],
        "trace.overhead_frac": extra["overhead_frac"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    before = calibrate()
    t0 = time.perf_counter()
    import workloads  # imports sturmjumps

    wl = workloads.WORKLOADS[args.workload]
    t_build = time.perf_counter()
    inputs = wl.build(args.seed)
    t_end = time.perf_counter()
    scale = REFERENCE_S / (0.5 * (before + calibrate()))
    setup_s = (t_end - t0) * scale
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracing import NullTracer, Tracer

    tally = workloads.Tally()
    budget = args.seconds / 2 if args.trace else args.seconds
    outputs, clock, walls = timed_passes(wl, inputs, tally, NullTracer(), budget)
    notes = []

    per_layer = None
    if args.trace:
        extra = {
            "build_s": (t_end - t_build) * scale,
            "value_ns": value_ns(inputs["potentials"]),
            "pool_busy_frac": 0.0,
            "lambda_gap": 0.0,
        }
        tracer = Tracer(f"{args.workload}-seed{args.seed}")
        tracer.install()
        tracer.active = True
        traced_outputs, traced_clock, traced_walls = timed_passes(wl, inputs, tally, tracer, budget)
        tracer.active = False
        tracer.uninstall()
        outputs += traced_outputs
        extra["overhead_frac"] = traced_clock.solve_s() / clock.solve_s() - 1.0
        if hasattr(wl, "pool_probe"):
            extra["pool_busy_frac"], extra["lambda_gap"] = wl.pool_probe(inputs, outputs[0], tally)
            notes.append(
                "one untimed --threads 2 pass, whose worker processes are not traced, gives "
                "jumps.pool_busy_frac (from RUSAGE_CHILDREN) and jumps.w2_lambda_gap_max"
            )

    root_err = wl.check(inputs, outputs[0], tally)
    for k, out in enumerate(outputs[1:], start=2):
        if out != outputs[0]:
            tally.fail(f"pass {k} differs from pass 1")

    if args.trace:
        oracle_s = inputs.get("oracle_s", [])
        extra["oracle"] = (len(oracle_s), sum(oracle_s))
        per_layer = layer_metrics(tracer, len(traced_walls), extra)
        tracer.write(os.path.join(ROOT, ".bench_out", f"trace-{args.workload}-seed{args.seed}.jsonl"))

    lat_ms = clock.count_ms()
    result = {
        "setup_s": setup_s,
        "correct": tally.failed == 0 and math.isfinite(root_err),
        "attempted": tally.attempted,
        "failed": min(tally.failed, tally.attempted),
        "messages": tally.messages,
        "notes": notes,
        "passes": len(walls),
        "pass_wall_s": statistics.median(walls),
        "count_samples": len(lat_ms),
        "metrics": {
            "solve_s": clock.solve_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "count_ms_p50": percentile(lat_ms, 50),
            "count_ms_p90": percentile(lat_ms, 90),
            "root_err_over_tol": root_err,
        },
        "per_layer": per_layer,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
