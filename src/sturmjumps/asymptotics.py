"""Verdicts on the asymptotic behaviour of jump sequences.

Three checks, matching the three laws the library is built to probe:

* boundedness of n * e_n over a long n-range (the sharpened counting law
  for smooth positive potentials),
* the Weyl defect lambda*D/pi - N(lambda), which should stay within
  1 + O(1/lambda),
* extrapolation of e_n to its constant term, compared against the
  endpoint-exponent prediction 1/(4+2*gamma_a) + 1/(4+2*gamma_b) - 1/2.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .jumps import JumpRecord
from .oscillation import count_negative
from .potential import Potential, endpoint_constant
from .quadrature import integrate_sqrt_v

__all__ = [
    "TheoremCheck",
    "ConjectureFit",
    "theorem_check",
    "weyl_defect",
    "conjecture_fit",
    "theorem_range",
    "conjecture_range",
]

_PI = math.pi

# |n*e_n| below this is treated as numerical noise rather than signal
_NOISE_FLOOR = 1e-6


@dataclass(frozen=True)
class TheoremCheck:
    max_n_en: float
    tail_max_n_en: float
    head_max_n_en: float
    growth_exponent: Optional[float]
    consistent: bool
    n_min: int
    n_max: int


@dataclass(frozen=True)
class ConjectureFit:
    constant_estimate: float
    constant_stderr: float
    predicted: float
    slope_coefficient: float
    consistent: bool
    n_fit_min: int
    n_fit_max: int


def theorem_range(ns: Sequence[int]) -> None:
    """Raise ValueError unless the distinct n, ascending, span what theorem_check needs."""
    if ns[0] < 10 or ns[-1] < 4 * ns[0]:
        raise ValueError(f"insufficient range: need n_min >= 10 and n_max >= 4*n_min, got [{ns[0]}, {ns[-1]}]")


def conjecture_range(ns: Sequence[int]) -> None:
    """Raise ValueError unless the distinct n, ascending, reach 100 with 3 in the tail the fit reads."""
    if ns[-1] < 100:
        raise ValueError(f"insufficient range: need n_max >= 100, got [{ns[0]}, {ns[-1]}]")
    if len(ns) - bisect.bisect_left(ns, 0.5 * (ns[0] + ns[-1])) < 3:
        raise ValueError(f"insufficient range: need 3 distinct n at or above the midpoint of [{ns[0]}, {ns[-1]}]")


def theorem_check(records: Sequence[JumpRecord]) -> TheoremCheck:
    """Boundedness proxy for n * e_n over [n_min, n_max].

    The sequence passes when the max of |n*e_n| over the top half of the
    range does not exceed twice the max over the bottom half, and (above
    the noise floor) the log-log growth exponent of |n*e_n| stays below
    0.25.  The growth test is what actually rejects slowly diverging
    sequences such as e_n ~ 1/sqrt(n), for which the two half-maxima only
    differ by sqrt(2).
    """
    recs = sorted(records, key=lambda r: r.n)
    if not recs:
        raise ValueError("no records")
    theorem_range(sorted({r.n for r in recs}))
    n_min, n_max = recs[0].n, recs[-1].n
    mid = 0.5 * (n_min + n_max)
    scaled = [(r.n, abs(r.n * r.e_n)) for r in recs]
    head = max(v for n, v in scaled if n <= mid)
    tail = max(v for n, v in scaled if n > mid)
    overall = max(head, tail)

    slope = None
    positives = [(n, v) for n, v in scaled if v > 0.0]
    if tail > _NOISE_FLOOR and len(positives) >= max(5, len(scaled) // 2):
        ns = np.log([n for n, _ in positives])
        vs = np.log([v for _, v in positives])
        slope = float(np.polyfit(ns, vs, 1)[0])
    consistent = tail <= max(2.0 * head, _NOISE_FLOOR) and (slope is None or slope <= 0.25)
    return TheoremCheck(overall, tail, head, slope, consistent, n_min, n_max)


def weyl_defect(
    p: Potential,
    lam: float,
    rtol: float = 1e-10,
    d_value: Optional[float] = None,
) -> float:
    """lambda*D/pi - N(lambda); raises AtJumpAmbiguity when lambda sits on a jump."""
    d = d_value if d_value is not None else integrate_sqrt_v(p, p.a, p.b).value
    n = count_negative(p, lam, rtol=rtol)
    return lam * d / _PI - n


def conjecture_fit(
    records: Sequence[JumpRecord], gamma_a: float, gamma_b: float
) -> ConjectureFit:
    """Fit e_n = kappa + beta/n on the tail half and compare with the prediction.

    Consistent when |kappa - predicted| <= max(3*stderr, 0.01); the 1/n
    term is a modelling convenience that absorbs the leading correction.
    """
    recs = sorted(records, key=lambda r: r.n)
    if not recs:
        raise ValueError("no records")
    conjecture_range(sorted({r.n for r in recs}))
    mid = 0.5 * (recs[0].n + recs[-1].n)
    tail = [r for r in recs if r.n >= mid]
    ns = np.array([r.n for r in tail], dtype=float)
    ys = np.array([r.e_n for r in tail], dtype=float)
    design = np.column_stack([np.ones_like(ns), 1.0 / ns])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    kappa, beta = float(coef[0]), float(coef[1])
    resid = ys - design @ coef
    dof = len(tail) - 2
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    cov = sigma2 * np.linalg.inv(design.T @ design)
    stderr = float(math.sqrt(max(cov[0, 0], 0.0)))
    predicted = endpoint_constant(gamma_a, gamma_b)
    consistent = abs(kappa - predicted) <= max(3.0 * stderr, 0.01)
    return ConjectureFit(kappa, stderr, predicted, beta, consistent, tail[0].n, tail[-1].n)
