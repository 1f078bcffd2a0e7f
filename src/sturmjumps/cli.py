"""Command-line interface: count, jumps, transform, verify.

Each subcommand, each ``verify --suite`` and each ``count --method``
takes only the options it reads; any other option is a usage error.
Every JSON artifact records those options, defaults resolved, as its
``config``, so a report is reproducible from its own header.  Randomized
sweeps draw from a seeded generator (default seed 42).  Jump tables run
on one worker unless ``--threads`` asks for more.  Exit codes: 0
success, 1 computational error, 2 verification failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import asdict

import numpy as np

from .asymptotics import conjecture_fit, conjecture_range, theorem_check, theorem_range, weyl_defect
from .expr import FormulaError
from .jumps import jump_sequence
from .liouville_green import count_bracket, lg_data
from .oscillation import AtJumpAmbiguity, phase
from .potential import Potential, Regularity
from .quadrature import integrate_sqrt_v
from .spectra_oracle import count_matrix

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_COMPUTATIONAL = 1
EXIT_VERIFICATION = 2
EXIT_USAGE = 64

# the options each choice of a selector (verify --suite, count --method)
# reads, with what it runs when they are not given; the conjecture suite's
# n_min defaults to max(20, n_max // 20)
_SELECTED_OPTIONS = {
    "suite": {
        "theorem": {"n_min": 10, "n_max": 500, "root_tol": 1e-10, "threads": 1},
        "weyl": {"samples": 500, "lambda_min": 10.0, "lambda_max": 1000.0, "rtol": 1e-10, "seed": 42},
        "bracket": {"samples": 200, "lambda_max": 500.0, "grid": 512, "rtol": 1e-10},
        "conjecture": {"n_min": None, "n_max": 400, "root_tol": 1e-10, "threads": 1},
    },
    "method": {"phase": {"rtol": 1e-10}, "matrix": {"mesh": 20000}},
}

# the least value each size option accepts
_MINIMA = {"samples": 1, "grid": 200, "mesh": 1, "threads": 1}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_subcommand(sub, common: argparse.ArgumentParser, name: str):
    """Add the subcommand ``name`` to ``sub``, with ``common``'s options and its own."""
    if name == "count":
        p = sub.add_parser("count", parents=[common], help="count negative eigenvalues at one coupling")
        p.add_argument("--lambda", dest="lam", type=float, required=True, help="coupling strength")
        p.add_argument("--method", choices=list(_SELECTED_OPTIONS["method"]), default="phase")
        # left out, these stay out of the namespace, so one the method does not read is seen
        p.add_argument("--mesh", type=int, default=argparse.SUPPRESS, help="interior mesh points (matrix)")
        p.add_argument("--rtol", type=float, default=argparse.SUPPRESS, help="phase integration tolerance (phase)")
    elif name == "jumps":
        p = sub.add_parser("jumps", parents=[common], help="locate jump couplings lambda_n")
        p.add_argument("--n-min", type=int, default=1)
        p.add_argument("--n-max", type=int, required=True)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--root-tol", type=float, default=1e-10, help="jump root tolerance (relative in theta)")
        p.add_argument("--threads", type=int, default=1, help="worker processes")
    elif name == "transform":
        p = sub.add_parser("transform", parents=[common], help="Liouville-Green data: D, U(xi), C")
        p.add_argument("--grid", type=int, default=512, help="Chebyshev sample points")
    else:
        # an option left out stays out of the namespace, so one the suite does not read is seen
        p = sub.add_parser(
            "verify", parents=[common], argument_default=argparse.SUPPRESS, help="run an asymptotic-law check suite"
        )
        p.add_argument("--suite", choices=list(_SELECTED_OPTIONS["suite"]), required=True)
        p.add_argument("--n-min", type=int, help="theorem, conjecture")
        p.add_argument("--n-max", type=int, help="theorem, conjecture")
        p.add_argument("--samples", type=int, help="lambda draws (weyl) or grid size (bracket)")
        p.add_argument("--lambda-min", type=float, help="weyl")
        p.add_argument("--lambda-max", type=float, help="weyl, bracket")
        p.add_argument("--grid", type=int, help="Chebyshev sample points (bracket)")
        p.add_argument("--seed", type=int, help="seed for the weyl suite's draws")
        p.add_argument("--rtol", type=float, help="phase integration tolerance (weyl, bracket)")
        p.add_argument("--root-tol", type=float, help="jump root tolerance (theorem, conjecture)")
        p.add_argument("--threads", type=int, help="worker processes (theorem, conjecture)")


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The CLI's parser: with the subcommand ``argv[0]`` names alone, whose help and errors never
    name the others, or with every subcommand when it names none."""
    parser = _Parser(prog="sturmjumps", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--potential", required=True, help="formula for V(x), e.g. '2+sin(x)'")
    common.add_argument("--a", type=float, required=True, help="left endpoint")
    common.add_argument("--b", type=float, required=True, help="right endpoint")
    common.add_argument(
        "--class",
        dest="klass",
        choices=["theorem", "conjecture"],
        default="theorem",
        help="regularity class of the potential",
    )
    common.add_argument("--gamma-a", type=float, default=None, help="left endpoint exponent")
    common.add_argument("--gamma-b", type=float, default=None, help="right endpoint exponent")
    common.add_argument("--out", default=None, help="output artifact path")

    for name in [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS:
        _add_subcommand(sub, common, name)
    return parser


def _resolve(args: argparse.Namespace):
    """Check the options and fill in the defaults the run will use, in place."""
    opts = vars(args)
    if not args.a < args.b:
        raise _UsageError(f"need a < b, got a={args.a}, b={args.b}")
    for name in ("lam", "rtol", "root_tol", "lambda_min", "lambda_max"):
        if opts.get(name) is not None and not 0 < opts[name] < math.inf:
            raise _UsageError(f"--{'lambda' if name == 'lam' else name.replace('_', '-')} must be positive and finite")
    for selector, choices in _SELECTED_OPTIONS.items():
        if selector not in opts:
            continue
        reads = choices[opts[selector]]
        unread = [name for name in opts if name not in reads and any(name in other for other in choices.values())]
        if unread:
            raise _UsageError(f"--{selector} {opts[selector]} does not read --{unread[0].replace('_', '-')}")
        for name, value in reads.items():
            opts.setdefault(name, value)
    if opts.get("suite") == "conjecture" and args.n_min is None:
        args.n_min = max(20, args.n_max // 20)
    for name, least in _MINIMA.items():
        if opts.get(name) is not None and opts[name] < least:
            raise _UsageError(f"--{name} must be at least {least}")
    if opts.get("n_max") is not None and not 1 <= args.n_min <= args.n_max:
        raise _UsageError("need 1 <= --n-min <= --n-max")
    check = {"theorem": theorem_range, "conjecture": conjecture_range}.get(opts.get("suite"))
    if check is not None:  # the suite's own range rule, before any root is found
        try:
            check(range(args.n_min, args.n_max + 1))
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    if "lambda_min" in opts and not args.lambda_min < args.lambda_max:
        raise _UsageError("need --lambda-min < --lambda-max")


def _config(args: argparse.Namespace) -> dict:
    """The subcommand and its options, keyed by option name."""
    names = {"lam": "lambda", "klass": "class"}
    return {names.get(k, k): v for k, v in vars(args).items()}


def _build_potential(args: argparse.Namespace) -> Potential:
    try:
        return Potential.from_formula(
            args.potential,
            args.a,
            args.b,
            regularity=Regularity(args.klass),
            gamma_a=args.gamma_a,
            gamma_b=args.gamma_b,
        )
    except (FormulaError, ValueError) as exc:
        raise _UsageError(f"bad potential: {exc}") from None


def _emit(args: argparse.Namespace, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, payload: dict):
    payload = dict(payload, config=_config(args))
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _summary(line: str):
    print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_count(args: argparse.Namespace, p: Potential) -> int:
    # how the count was computed: the phase's error bar and counters, null from the matrix
    payload = dict.fromkeys(("theta_b", "error_estimate", "cells", "rk_steps", "rk_rejected")) | {"lambda": args.lam}
    if args.method == "matrix":
        payload["count"] = count_matrix(p, args.lam, args.mesh)
        _summary(f"N({args.lam}) = {payload['count']} (matrix inertia, mesh {args.mesh})")
    else:
        res = phase(p, args.lam, rtol=args.rtol)
        payload.update(theta_b=res.theta_b, count=res.count, error_estimate=res.error_estimate, cells=res.cells,
                       rk_steps=res.steps, rk_rejected=res.rejected_steps)
        _summary(f"N({args.lam}) = {res.count} (theta_b/pi = {res.theta_b / math.pi:.6f})")
    _emit_json(args, payload)
    return EXIT_OK


def _diagnostics(records, tol: float) -> dict:
    """How a set of roots was computed: phase calls, the slivers' cells and failed checks (rk_*),
    propagator cells, the worst residual and the worst residual plus error bar."""
    return {
        "phase_calls": sum(r.phase_calls for r in records),
        "rk_steps": sum(r.rk_steps for r in records),
        "rk_rejected": sum(r.rk_rejected for r in records),
        "cells": sum(r.cells for r in records),
        "residual_over_tol_max": max(r.residual / (tol * r.n) for r in records),
        "residual_plus_error_bar_over_tol_max": max(
            (r.residual + r.error_bar) / (tol * r.n) for r in records
        ),
    }


def _records(args: argparse.Namespace, p: Potential):
    return jump_sequence(p, args.n_min, args.n_max, tol=args.root_tol, workers=args.threads)


def _cmd_jumps(args: argparse.Namespace, p: Potential) -> int:
    records = _records(args, p)
    if args.format == "json":
        payload = {
            "records": [dict(asdict(r), n_times_e_n=r.n * r.e_n) for r in records],
            "diagnostics": _diagnostics(records, args.root_tol),
        }
        _emit_json(args, payload)
    else:
        lines = ["n,lambda_n,e_n,n_times_e_n"]
        for r in records:
            lines.append(f"{r.n},{r.lambda_n:.17e},{r.e_n:.17e},{r.n * r.e_n:.17e}")
        _emit(args, "\n".join(lines) + "\n")
    worst = max(abs(r.n * r.e_n) for r in records)
    _summary(f"computed {len(records)} jumps for n in [{args.n_min}, {args.n_max}]; max |n e_n| = {worst:.3e}")
    return EXIT_OK


def _cmd_transform(args: argparse.Namespace, p: Potential) -> int:
    lg = lg_data(p, grid_points=args.grid)
    samples = [{"x": x, "xi": xi, "U": u} for x, xi, u in zip(lg.x.tolist(), lg.xi.tolist(), lg.u.tolist())]
    diagnostics = {"xi_evaluations": lg.xi_evaluations, "xi_bisections": lg.xi_bisections, "d_evaluations": lg.d_evaluations}
    _emit_json(args, {"D": lg.d, "C": lg.c, "samples": samples, "diagnostics": diagnostics})
    _summary(f"D = {lg.d:.12g}, C = {lg.c:.6g} ({args.grid} samples)")
    return EXIT_OK


def _suite_theorem(args: argparse.Namespace, p: Potential):
    records = _records(args, p)
    chk = theorem_check(records)
    metrics = {
        "max_n_en": chk.max_n_en,
        "tail_max_n_en": chk.tail_max_n_en,
        "head_max_n_en": chk.head_max_n_en,
        "growth_exponent": chk.growth_exponent,
        "n_range": [chk.n_min, chk.n_max],
    }
    detail = f"max |n e_n| = {chk.max_n_en:.4g}, tail/head = {chk.tail_max_n_en:.3g}/{chk.head_max_n_en:.3g}"
    return chk.consistent, metrics, detail, _diagnostics(records, args.root_tol)


def _suite_weyl(args: argparse.Namespace, p: Potential):
    d = integrate_sqrt_v(p, p.a, p.b).value
    lam_lo, lam_hi = args.lambda_min, args.lambda_max
    rng = random.Random(args.seed)
    worst = 0.0
    k_fit = 0.0
    drawn = redrawn = 0
    while drawn < args.samples:
        lam = rng.uniform(lam_lo, lam_hi)
        try:
            defect = abs(weyl_defect(p, lam, rtol=args.rtol, d_value=d))
        except AtJumpAmbiguity:
            # a coupling at a jump has no defect: draw again, unless the range sits at jumps
            redrawn += 1
            if redrawn > args.samples:
                raise
            continue
        drawn += 1
        worst = max(worst, defect)
        k_fit = max(k_fit, (defect - 1.0) * lam)
    passed = worst <= 1.5
    metrics = {
        "weyl_defect_max": worst,
        "fitted_K": k_fit,
        "samples": args.samples,
        "redrawn_at_jumps": redrawn,
        "lambda_range": [lam_lo, lam_hi],
        "D": d,
    }
    return passed, metrics, f"max |defect| = {worst:.4f}, fitted K = {k_fit:.3g}", None


def _suite_bracket(args: argparse.Namespace, p: Potential):
    lg = lg_data(p, grid_points=args.grid)
    # the bracket holds only above sqrt(C)
    lam_lo = 1.1 * math.sqrt(lg.c) if lg.c > 0 else 0.1
    if not lam_lo < args.lambda_max:
        raise _UsageError(f"--lambda-max must exceed the sweep's start {lam_lo!r}")
    lams = np.geomspace(lam_lo * (1.0 + 1e-9), args.lambda_max, args.samples)
    violations = 0
    wide = 0
    for lam in lams.tolist():
        n = phase(p, lam, rtol=args.rtol).count
        lower, upper = count_bracket(lg, lam)
        if not lower <= n <= upper:
            violations += 1
        if lam >= 50.0 and upper - lower > 2:
            wide += 1
    passed = violations == 0 and wide == 0
    metrics = {
        "D": lg.d,
        "C": lg.c,
        "points": args.samples,
        "lambda_range": [float(lams[0]), float(lams[-1])],
        "inclusion_violations": violations,
        "wide_brackets_past_50": wide,
    }
    return passed, metrics, f"{violations} inclusion violations, {wide} over-wide brackets", None


def _suite_conjecture(args: argparse.Namespace, p: Potential):
    records = _records(args, p)
    fit = conjecture_fit(records, p.gamma_a, p.gamma_b)
    metrics = {
        "constant_estimate": fit.constant_estimate,
        "constant_stderr": fit.constant_stderr,
        "predicted": fit.predicted,
        "slope_coefficient": fit.slope_coefficient,
        "n_fit_range": [fit.n_fit_min, fit.n_fit_max],
    }
    detail = (
        f"kappa = {fit.constant_estimate:.5f} vs predicted "
        f"{fit.predicted:.5f} (stderr {fit.constant_stderr:.2g})"
    )
    return fit.consistent, metrics, detail, _diagnostics(records, args.root_tol)


_SUITES = {
    "theorem": _suite_theorem,
    "weyl": _suite_weyl,
    "bracket": _suite_bracket,
    "conjecture": _suite_conjecture,
}


def _cmd_verify(args: argparse.Namespace, p: Potential) -> int:
    passed, metrics, detail, diagnostics = _SUITES[args.suite](args, p)
    payload = {"suite": args.suite, "passed": passed, "metrics": metrics}
    if diagnostics is not None:
        payload["diagnostics"] = diagnostics
    _emit_json(args, payload)
    _summary(f"suite {args.suite}: {'PASS' if passed else 'FAIL'} ({detail})")
    return EXIT_OK if passed else EXIT_VERIFICATION


_COMMANDS = {
    "count": _cmd_count,
    "jumps": _cmd_jumps,
    "transform": _cmd_transform,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
        _resolve(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.subcommand](args, _build_potential(args))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATIONAL


def entry():
    sys.exit(main())
