"""Command-line interface: count, jumps, transform, verify.

Every run resolves its configuration into the emitted artifact, so a
report is reproducible from its own header.  Randomized sweeps draw from
a seeded generator (default seed 42).  Exit codes: 0 success, 1
computational error, 2 verification failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .asymptotics import conjecture_fit, theorem_check
from .expr import FormulaError
from .jumps import jump_sequence
from .liouville_green import count_bracket, lg_data
from .oscillation import AtJumpAmbiguity, count_negative, phase
from .potential import Potential, Regularity
from .quadrature import integrate_sqrt_v
from .spectra_oracle import count_matrix

__all__ = ["main", "entry", "RunConfig"]

EXIT_OK = 0
EXIT_COMPUTATIONAL = 1
EXIT_VERIFICATION = 2
EXIT_USAGE = 64

THREADS_ENV = "STURM_JUMPS_THREADS"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class RunConfig:
    subcommand: str
    potential_text: str
    a: float
    b: float
    klass: str
    gamma_a: Optional[float]
    gamma_b: Optional[float]
    rtol: float
    quad_tol: float
    root_tol: float
    delta_tol: float
    n_min: int
    n_max: int
    lam: Optional[float]
    mesh: int
    method: str
    out_path: Optional[str]
    format: str
    threads: int
    seed: int
    grid: int
    suite: Optional[str]
    samples: int
    lambda_min: float
    lambda_max: float

    def to_dict(self):
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d


def _resolve_threads(value):
    if value is not None:
        return max(1, value)
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise _UsageError(f"bad {THREADS_ENV}={env!r}: {exc}") from None
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
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
    common.add_argument("--rtol", type=float, default=1e-10, help="phase integration tolerance")
    common.add_argument("--quad-tol", type=float, default=1e-12, help="quadrature tolerance")
    common.add_argument("--root-tol", type=float, default=1e-10, help="jump root tolerance (relative in theta)")
    common.add_argument("--delta-tol", type=float, default=1e-10, help="singular-endpoint offset tolerance")
    common.add_argument("--out", dest="out_path", default=None, help="output artifact path")
    common.add_argument("--seed", type=int, default=42, help="seed for randomized sweeps")
    common.add_argument("--threads", type=int, default=None, help=f"worker processes (default: {THREADS_ENV} or cpu count)")

    pc = sub.add_parser("count", parents=[common], help="count negative eigenvalues at one coupling")
    pc.add_argument("--lambda", dest="lam", type=float, required=True, help="coupling strength")
    pc.add_argument("--method", choices=["phase", "matrix"], default="phase")
    pc.add_argument("--mesh", type=int, default=20000, help="interior mesh points for --method matrix")

    pj = sub.add_parser("jumps", parents=[common], help="locate jump couplings lambda_n")
    pj.add_argument("--n-min", type=int, default=1)
    pj.add_argument("--n-max", type=int, required=True)
    pj.add_argument("--format", choices=["csv", "json"], default="csv")

    pt = sub.add_parser("transform", parents=[common], help="Liouville-Green data: D, U(xi), C")
    pt.add_argument("--grid", type=int, default=512, help="Chebyshev sample points")

    pv = sub.add_parser("verify", parents=[common], help="run an asymptotic-law check suite")
    pv.add_argument("--suite", choices=["theorem", "weyl", "bracket", "conjecture"], required=True)
    pv.add_argument("--n-min", type=int, default=None)
    pv.add_argument("--n-max", type=int, default=None)
    pv.add_argument("--samples", type=int, default=None, help="lambda draws (weyl) or grid size (bracket)")
    pv.add_argument("--lambda-min", type=float, default=10.0)
    pv.add_argument("--lambda-max", type=float, default=None)
    pv.add_argument("--grid", type=int, default=512)
    return parser


def _make_config(args) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        potential_text=args.potential,
        a=args.a,
        b=args.b,
        klass=args.klass,
        gamma_a=args.gamma_a,
        gamma_b=args.gamma_b,
        rtol=args.rtol,
        quad_tol=args.quad_tol,
        root_tol=args.root_tol,
        delta_tol=args.delta_tol,
        n_min=getattr(args, "n_min", None) or 1,
        n_max=getattr(args, "n_max", None) or 0,
        lam=getattr(args, "lam", None),
        mesh=getattr(args, "mesh", 20000),
        method=getattr(args, "method", "phase"),
        out_path=args.out_path,
        format=getattr(args, "format", "json"),
        threads=_resolve_threads(args.threads),
        seed=args.seed,
        grid=getattr(args, "grid", 512),
        suite=getattr(args, "suite", None),
        samples=getattr(args, "samples", None) or 0,
        lambda_min=getattr(args, "lambda_min", 10.0),
        lambda_max=getattr(args, "lambda_max", None) or 0.0,
    )


def _validate_config(cfg: RunConfig):
    if not cfg.a < cfg.b:
        raise _UsageError(f"need a < b, got a={cfg.a}, b={cfg.b}")
    for name in ("rtol", "quad_tol", "root_tol", "delta_tol"):
        if getattr(cfg, name) <= 0:
            raise _UsageError(f"--{name.replace('_', '-')} must be positive")
    if cfg.subcommand == "jumps" and not 1 <= cfg.n_min <= cfg.n_max:
        raise _UsageError("need 1 <= --n-min <= --n-max")
    if cfg.subcommand == "count" and cfg.lam is not None and cfg.lam <= 0:
        raise _UsageError("--lambda must be positive")


def _build_potential(cfg: RunConfig) -> Potential:
    try:
        return Potential.from_formula(
            cfg.potential_text,
            cfg.a,
            cfg.b,
            regularity=Regularity(cfg.klass),
            gamma_a=cfg.gamma_a,
            gamma_b=cfg.gamma_b,
        )
    except (FormulaError, ValueError) as exc:
        raise _UsageError(f"bad potential: {exc}") from None


def _emit(cfg: RunConfig, text: str):
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(cfg: RunConfig, payload: dict):
    _emit(cfg, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _summary(line: str):
    print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_count(cfg: RunConfig, p: Potential) -> int:
    if cfg.method == "matrix":
        n = count_matrix(p, cfg.lam, cfg.mesh)
        payload = {"lambda": cfg.lam, "theta_b": None, "count": n, "config": cfg.to_dict()}
        _summary(f"N({cfg.lam}) = {n} (matrix inertia, mesh {cfg.mesh})")
    else:
        res = phase(p, cfg.lam, rtol=cfg.rtol, delta_tol=cfg.delta_tol)
        payload = {
            "lambda": cfg.lam,
            "theta_b": res.theta_b,
            "count": res.count,
            "config": cfg.to_dict(),
        }
        _summary(f"N({cfg.lam}) = {res.count} (theta_b/pi = {res.theta_b / math.pi:.6f})")
    _emit_json(cfg, payload)
    return EXIT_OK


def _diagnostics(records, tol: float) -> dict:
    """How a set of roots was computed: phase calls, RK steps and rejections,
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


def _cmd_jumps(cfg: RunConfig, p: Potential) -> int:
    records = jump_sequence(
        p,
        cfg.n_min,
        cfg.n_max,
        tol=cfg.root_tol,
        delta_tol=cfg.delta_tol,
        quad_tol=cfg.quad_tol,
        workers=cfg.threads,
    )
    if cfg.format == "json":
        payload = {
            "records": [dict(asdict(r), n_times_e_n=r.n * r.e_n) for r in records],
            "diagnostics": _diagnostics(records, cfg.root_tol),
            "config": cfg.to_dict(),
        }
        _emit_json(cfg, payload)
    else:
        lines = ["n,lambda_n,e_n,n_times_e_n"]
        for r in records:
            lines.append(f"{r.n},{r.lambda_n:.17e},{r.e_n:.17e},{r.n * r.e_n:.17e}")
        _emit(cfg, "\n".join(lines) + "\n")
    worst = max(abs(r.n * r.e_n) for r in records)
    _summary(f"computed {len(records)} jumps for n in [{cfg.n_min}, {cfg.n_max}]; max |n e_n| = {worst:.3e}")
    return EXIT_OK


def _cmd_transform(cfg: RunConfig, p: Potential) -> int:
    lg = lg_data(p, grid_points=cfg.grid, quad_tol=cfg.quad_tol)
    samples = [
        {"x": x, "xi": xi, "U": u}
        for (x, xi), (_, u) in zip(lg.grid, lg.u_samples)
    ]
    payload = {
        "D": lg.d,
        "C": lg.c,
        "samples": samples,
        "diagnostics": {
            "xi_evaluations": lg.xi_evaluations,
            "xi_bisections": lg.xi_bisections,
            "d_evaluations": lg.d_evaluations,
        },
        "config": cfg.to_dict(),
    }
    _emit_json(cfg, payload)
    _summary(f"D = {lg.d:.12g}, C = {lg.c:.6g} ({cfg.grid} samples)")
    return EXIT_OK


def _count_off_jump(p, lam, rtol, delta_tol):
    # retry with a relative nudge when lambda lands numerically on a jump
    for _ in range(8):
        try:
            return lam, count_negative(p, lam, rtol=rtol, delta_tol=delta_tol)
        except AtJumpAmbiguity:
            lam *= 1.0 + 3e-7
    raise AtJumpAmbiguity(lam, float("nan"))


def _suite_theorem(cfg: RunConfig, p: Potential):
    n_min = cfg.n_min if cfg.n_min > 1 else 10
    n_max = cfg.n_max or 500
    records = jump_sequence(
        p, n_min, n_max, tol=cfg.root_tol, delta_tol=cfg.delta_tol, workers=cfg.threads
    )
    chk = theorem_check(records)
    metrics = {
        "max_n_en": chk.max_n_en,
        "tail_max_n_en": chk.tail_max_n_en,
        "head_max_n_en": chk.head_max_n_en,
        "growth_exponent": chk.growth_exponent,
        "n_range": [chk.n_min, chk.n_max],
    }
    detail = f"max |n e_n| = {chk.max_n_en:.4g}, tail/head = {chk.tail_max_n_en:.3g}/{chk.head_max_n_en:.3g}"
    return chk.consistent, metrics, detail, _diagnostics(records, cfg.root_tol)


def _suite_weyl(cfg: RunConfig, p: Potential):
    d = integrate_sqrt_v(p, p.a, p.b, cfg.quad_tol).value
    samples = cfg.samples or 500
    lam_lo = cfg.lambda_min
    lam_hi = cfg.lambda_max or 1000.0
    rng = random.Random(cfg.seed)
    defects = []
    worst = 0.0
    k_fit = 0.0
    for _ in range(samples):
        lam = rng.uniform(lam_lo, lam_hi)
        lam, n = _count_off_jump(p, lam, cfg.rtol, cfg.delta_tol)
        defect = lam * d / math.pi - n
        defects.append(abs(defect))
        worst = max(worst, abs(defect))
        k_fit = max(k_fit, (abs(defect) - 1.0) * lam)
    k_fit = max(k_fit, 0.0)
    passed = worst <= 1.5
    metrics = {
        "weyl_defect_max": worst,
        "fitted_K": k_fit,
        "samples": samples,
        "lambda_range": [lam_lo, lam_hi],
        "D": d,
    }
    return passed, metrics, f"max |defect| = {worst:.4f}, fitted K = {k_fit:.3g}", None


def _suite_bracket(cfg: RunConfig, p: Potential):
    lg = lg_data(p, grid_points=cfg.grid, quad_tol=cfg.quad_tol)
    points = cfg.samples or 200
    lam_hi = cfg.lambda_max or 500.0
    lam_lo = 1.1 * math.sqrt(lg.c) if lg.c > 0 else max(1e-3, cfg.lambda_min / 100.0)
    lams = np.geomspace(lam_lo * (1.0 + 1e-9), lam_hi, points)
    violations = 0
    wide = 0
    for lam in lams:
        lam = float(lam)
        lam, n = _count_off_jump(p, lam, cfg.rtol, cfg.delta_tol)
        lower, upper = count_bracket(lg, lam)
        if not lower <= n <= upper:
            violations += 1
        if lam >= 50.0 and upper - lower > 2:
            wide += 1
    passed = violations == 0 and wide == 0
    metrics = {
        "D": lg.d,
        "C": lg.c,
        "points": points,
        "inclusion_violations": violations,
        "wide_brackets_past_50": wide,
    }
    return passed, metrics, f"{violations} inclusion violations, {wide} over-wide brackets", None


def _suite_conjecture(cfg: RunConfig, p: Potential):
    n_max = cfg.n_max or 400
    n_min = cfg.n_min if cfg.n_min > 1 else max(20, n_max // 20)
    records = jump_sequence(
        p, n_min, n_max, tol=cfg.root_tol, delta_tol=cfg.delta_tol, workers=cfg.threads
    )
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
    return fit.consistent, metrics, detail, _diagnostics(records, cfg.root_tol)


_SUITES = {
    "theorem": _suite_theorem,
    "weyl": _suite_weyl,
    "bracket": _suite_bracket,
    "conjecture": _suite_conjecture,
}


def _cmd_verify(cfg: RunConfig, p: Potential) -> int:
    passed, metrics, detail, diagnostics = _SUITES[cfg.suite](cfg, p)
    payload = {"suite": cfg.suite, "passed": passed, "metrics": metrics, "config": cfg.to_dict()}
    if diagnostics is not None:
        payload["diagnostics"] = diagnostics
    _emit_json(cfg, payload)
    _summary(f"suite {cfg.suite}: {'PASS' if passed else 'FAIL'} ({detail})")
    return EXIT_OK if passed else EXIT_VERIFICATION


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _make_config(args)
        _validate_config(cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        p = _build_potential(cfg)
        if cfg.subcommand == "count":
            return _cmd_count(cfg, p)
        if cfg.subcommand == "jumps":
            return _cmd_jumps(cfg, p)
        if cfg.subcommand == "transform":
            return _cmd_transform(cfg, p)
        return _cmd_verify(cfg, p)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATIONAL


def entry():
    sys.exit(main())
