"""Locating the couplings lambda_n where the eigenvalue count jumps.

lambda_n is the smallest lambda with N(lambda) >= n, equivalently the
lambda at which the Dirichlet solution gains its n-th zero at x = b, i.e.
the root of theta(b; lambda) = n*pi.  Since theta(b; .) is strictly
increasing, a safeguarded secant/bisection on a sign-changing bracket
converges fast and sidesteps the at-jump counting ambiguity entirely.

Each record carries e_n = lambda_n * D / pi - n, the deviation of the
jump from its leading prediction n*pi/D with D the full integral of
sqrt(V).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .oscillation import phase
from .potential import Potential
from .quadrature import integrate_sqrt_v

__all__ = ["JumpRecord", "BracketingError", "find_jump", "jump_sequence"]

_PI = math.pi


class BracketingError(RuntimeError):
    pass


@dataclass(frozen=True)
class JumpRecord:
    n: int
    lambda_n: float
    residual: float
    e_n: float


def find_jump(
    p: Potential,
    n: int,
    tol: float = 1e-10,
    delta_tol: float = 1e-10,
    rtol: Optional[float] = None,
    d_value: Optional[float] = None,
    lam_guess: Optional[float] = None,
    max_expansions: int = 60,
) -> JumpRecord:
    """Solve theta(b; lambda) = n*pi for the n-th jump coupling.

    ``tol`` is relative in theta: the returned root satisfies
    |theta(b; lambda_n) - n*pi| <= tol*n, and BracketingError is raised
    when no iterate does.  The phase is integrated with rtol = tol/10
    unless overridden.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    phase_rtol = rtol if rtol is not None else tol / 10.0
    d = d_value if d_value is not None else integrate_sqrt_v(p, p.a, p.b, 1e-12).value
    target = n * _PI
    tol_theta = tol * n

    def residual_at(lam):
        return phase(p, lam, rtol=phase_rtol, delta_tol=delta_tol).theta_b - target

    lam0 = lam_guess if lam_guess is not None else target / d
    f0 = residual_at(lam0)
    if abs(f0) <= tol_theta:
        return JumpRecord(n, lam0, abs(f0), lam0 * d / _PI - n)

    # bracket by 25% expansions; theta(b; .) is strictly increasing
    if f0 < 0.0:
        lo, flo = lam0, f0
        hi, fhi = lam0, f0
        for _ in range(max_expansions):
            hi *= 1.25
            fhi = residual_at(hi)
            if fhi >= 0.0:
                break
            lo, flo = hi, fhi
        else:
            raise BracketingError(f"no sign change above lambda={lam0} for n={n}")
    else:
        hi, fhi = lam0, f0
        lo, flo = lam0, f0
        for _ in range(max_expansions):
            lo /= 1.25
            flo = residual_at(lo)
            if flo <= 0.0:
                break
            hi, fhi = lo, flo
        else:
            raise BracketingError(f"no sign change below lambda={lam0} for n={n}")

    best_lam, best_f = (lo, flo) if abs(flo) < abs(fhi) else (hi, fhi)
    side = 0  # Illinois bookkeeping: which endpoint moved last
    for _ in range(200):
        if abs(best_f) <= tol_theta:
            break
        denom = fhi - flo
        mid = lo + (hi - lo) * (-flo / denom) if denom != 0.0 else 0.5 * (lo + hi)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        fmid = residual_at(mid)
        if abs(fmid) < abs(best_f):
            best_lam, best_f = mid, fmid
        if fmid < 0.0:
            lo, flo = mid, fmid
            if side == -1:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = mid, fmid
            if side == 1:
                flo *= 0.5
            side = 1
        if hi - lo <= 8.0 * 2.220446049250313e-16 * hi:
            break
    if abs(best_f) > tol_theta:
        raise BracketingError(
            f"no root within tolerance for n={n}: best |theta(b) - n*pi| = {abs(best_f)!r} "
            f"at lambda={best_lam!r} exceeds {tol_theta!r}"
        )
    return JumpRecord(n, best_lam, abs(best_f), best_lam * d / _PI - n)


def _potential_payload(p: Potential) -> dict:
    return {
        "source": p.source,
        "a": p.a,
        "b": p.b,
        "regularity": p.regularity.value,
        "gamma_a": p.gamma_a,
        "gamma_b": p.gamma_b,
        "c_lower": p.c_lower,
    }


def _sequence_chunk(payload):
    pdict, ns, tol, delta_tol, rtol, d = payload
    p = Potential.from_formula(**pdict)
    out = []
    prev = None
    for n in ns:
        guess = None if prev is None else prev.lambda_n + (n - prev.n) * _PI / d
        rec = find_jump(p, n, tol=tol, delta_tol=delta_tol, rtol=rtol, d_value=d, lam_guess=guess)
        out.append(rec)
        prev = rec
    return out


def jump_sequence(
    p: Potential,
    n_min: int,
    n_max: int,
    tol: float = 1e-10,
    delta_tol: float = 1e-10,
    rtol: Optional[float] = None,
    quad_tol: float = 1e-12,
    workers: int = 1,
) -> list[JumpRecord]:
    """Jump records for every n in [n_min, n_max], strictly increasing in lambda.

    Consecutive roots warm-start each other inside a chunk; with
    workers > 1 the n-range is split into contiguous chunks evaluated in
    separate processes and merged in order.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    d = integrate_sqrt_v(p, p.a, p.b, quad_tol).value
    ns = list(range(n_min, n_max + 1))
    pdict = _potential_payload(p)
    if workers <= 1 or len(ns) < 4:
        records = _sequence_chunk((pdict, ns, tol, delta_tol, rtol, d))
    else:
        workers = min(workers, len(ns))
        size = (len(ns) + workers - 1) // workers
        chunks = [ns[i : i + size] for i in range(0, len(ns), size)]
        payloads = [(pdict, chunk, tol, delta_tol, rtol, d) for chunk in chunks]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_sequence_chunk, payloads))
        records = [rec for part in parts for rec in part]
    records.sort(key=lambda r: r.n)
    for prev, cur in zip(records, records[1:]):
        if not cur.lambda_n > prev.lambda_n:
            raise RuntimeError(
                f"jump sequence not increasing: lambda_{prev.n}={prev.lambda_n!r} "
                f"vs lambda_{cur.n}={cur.lambda_n!r}"
            )
    return records
