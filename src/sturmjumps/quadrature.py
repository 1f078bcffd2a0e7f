"""Quadrature for the phase-length integrals of sqrt(V).

One rule, composite 10-point Gauss-Legendre, integrates sqrt(V)
everywhere: the xi grid of liouville_green, the propagator's cells (by
``_GL_X`` and ``_GL_W``), the singular ends' ladders and the phase
length D (``integrate_sqrt_v``).  ``integrate_sqrt_v_segments`` runs it
on every given segment and on its two halves in one vectorized pass,
and bisects the few segments that miss the tolerance.  A regular
stretch is cut into _PIECES equal segments.  At an end with declared
exponent gamma != 0, where V ~ c |x - end|**gamma, the segments are the
octaves of the distance to that end, and the leading power with its
first correction covers the last octaves (``_graded_xi``).  No node
lands on a segment's ends, so a singular end is never sampled.

V is screened the same way everywhere: a non-finite value, a negative
one, or one below half a positive lower bound c_lower, found for the
theorem class or declared for either (``_v_floor``, the phase
propagator's floor too), raises QuadratureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import eval_jet2
from .potential import Potential

__all__ = [
    "QuadResult",
    "QuadratureError",
    "SegmentsResult",
    "integrate_sqrt_v",
    "integrate_sqrt_v_segments",
]

# 10-point Gauss-Legendre on [-1, 1]: the positive nodes and their weights,
# correctly rounded from 50-digit values (numpy.polynomial is not imported,
# for its import cost)
_GL_POS = (0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
           0.8650633666889845, 0.9739065285171717)
_GL_POS_W = (0.29552422471475287, 0.26926671930999635, 0.21908636251598204,
             0.1494513491505806, 0.06667134430868814)
_GL_X = np.array([-t for t in reversed(_GL_POS)] + list(_GL_POS))
_GL_W = np.array(list(reversed(_GL_POS_W)) + list(_GL_POS_W))

# bisection depth past which a segment is an error; it also bounds the work
# when the tolerance sits below rounding, where every piece keeps failing
_MAX_DEPTH = 8

# equal segments a regular stretch starts from: one misses 2+sin(10x) on [0, 50] at _MAX_DEPTH
_PIECES = 16

# share of b - a below which the leading-power tail, off by about (t/(b - a))**2, is exact to rounding
_TAIL_EXACT = math.sqrt(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class SegmentsResult:
    values: np.ndarray  # integral over each segment
    evaluations: int
    bisections: int
    error: float  # the accepted pieces' |halves - whole|, summed over every segment


def _v_floor(p: Potential) -> float:
    """The least V may fall to anywhere: half a positive lower bound c_lower, else 0.

    The one rule for the quadrature, which needs V >= floor, and the
    phase propagator's cells, which need V > floor.
    """
    if p.c_lower and p.c_lower > 0:
        return 0.5 * p.c_lower
    return 0.0


def _screen(p: Potential, x: float, v: float, v_floor: float) -> None:
    """Raise QuadratureError unless V(x) = v is finite, non-negative and at least v_floor."""
    if not math.isfinite(v):
        raise QuadratureError(f"potential evaluation failed at x={x}: V = {v} is not finite")
    if v < 0.0:
        raise QuadratureError(f"negative potential encountered: V({x}) = {v}")
    if v < v_floor:
        raise QuadratureError(
            f"V({x}) = {v} fell below half the lower bound c_lower = {p.c_lower} (floor {v_floor!r})"
        )


def _power_tail(t, sq, beta, gamma):
    """int sqrt(V) over the distance t to an end where V ~ c t**gamma, and its first correction's share.

    From sqrt(V) = sq and beta = V_t/(4V) at t, floats or arrays: the
    leading power with its first correction, t sqrt(V)/(1 + a) * (1 - c)
    with c = (a_t - a)/(a + 2), a = gamma/2 and a_t = 2 t beta =
    t (sqrt V)_t/sqrt(V).  Returns (the integral, c).
    """
    alpha = 0.5 * gamma
    c = (2.0 * t * beta - alpha) / (alpha + 2.0)
    return t * sq / (1.0 + alpha) * (1.0 - c), c


def _graded_xi(p: Potential, end: str, x0: float, tol: float = 1e-12):
    """int sqrt(V) from the singular ``end`` ("a" or "b") to each x_k = end +/- w 2**-k, w = |x0 - end|.

    The octaves between the x_k are segments sharing tol equally, down to
    the first x_k whose offset t stops moving x or is at most the larger
    of (ulp(end) (b - a)**2)**(1/3), below which nodes round in x by more
    than ``_power_tail`` errs, and _TAIL_EXACT (b - a), below which it is
    exact to rounding; ``_power_tail`` gives the rest, with the error
    tail * max(c**2, (t/(b - a))**2).  Returns (xi, error, evaluations).
    """
    sign, anchor, gamma = (1.0, p.a, p.gamma_a) if end == "a" else (-1.0, p.b, p.gamma_b)
    width = abs(x0 - anchor)
    length = p.b - p.a
    floor = max((abs(math.nextafter(anchor, sign * math.inf) - anchor) * length**2) ** (1.0 / 3.0), _TAIL_EXACT * length)
    xs, t = [x0], width
    while t > floor:
        x = anchor + sign * math.ldexp(width, -len(xs))
        if abs(x - anchor) == t:
            break
        xs.append(x)
        t = abs(x - anchor)
    x = xs[-1]
    try:
        v, dv, _ = eval_jet2(p.ast, x)
    except ArithmeticError as exc:
        raise QuadratureError(f"potential evaluation failed: {exc}") from None
    _screen(p, x, v, _v_floor(p))
    beta = sign * 0.25 * dv / v if v > 0.0 else 0.0
    tail, c = _power_tail(t, math.sqrt(v), beta, gamma)
    error = abs(tail) * max(c * c, (t / length) ** 2)
    if not math.isfinite(tail + error):
        raise QuadratureError(f"the leading-power tail at x={x} is not finite: V = {v}, V' = {dv}")
    xi, evaluations = np.array([tail]), 1
    if len(xs) > 1:
        seg = integrate_sqrt_v_segments(p, xs[::-1] if end == "a" else xs, tol / (len(xs) - 1))
        inward = seg.values if end == "a" else seg.values[::-1]  # the octaves from the last x_k outward
        xi = np.concatenate([xi, tail + np.cumsum(inward)])[::-1]
        error += seg.error
        evaluations += seg.evaluations
    return xi, error, evaluations


def integrate_sqrt_v(p: Potential, x0: float, x1: float, tol: float = 1e-12) -> QuadResult:
    """Integrate sqrt(V) over [x0, x1], a sub-interval of [p.a, p.b], to absolute tolerance ``tol``.

    An end of [x0, x1] that is an end of p with declared exponent
    gamma != 0 takes a quarter of the interval on its octaves
    (``_graded_xi``), the rest is _PIECES equal segments, and each part
    gets an equal share of ``tol``; missing it is an error, not a
    warning.  The QuadResult's error estimate sums the pieces'
    |halves - whole|, the tails' errors and a few ulp of rounding.
    """
    if not (p.a <= x0 < x1 <= p.b):
        raise ValueError(f"need p.a <= x0 < x1 <= p.b, got [{x0}, {x1}]")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    at_a, at_b = x0 == p.a and p.gamma_a != 0.0, x1 == p.b and p.gamma_b != 0.0
    share = tol / (1 + at_a + at_b)
    lo, hi = x0 + at_a * 0.25 * (x1 - x0), x1 - at_b * 0.25 * (x1 - x0)
    graded = [_graded_xi(p, end, edge, share) for end, edge, on in (("a", lo, at_a), ("b", hi, at_b)) if on]
    seg = integrate_sqrt_v_segments(p, np.linspace(lo, hi, _PIECES + 1), share / _PIECES)
    value = math.fsum([*(xi[0] for xi, _, _ in graded), *seg.values])
    error = math.fsum(g[1] for g in graded) + seg.error + 4.0 * math.ulp(value)
    return QuadResult(value, error, sum(g[2] for g in graded) + seg.evaluations)


def integrate_sqrt_v_segments(p: Potential, xs, tol: float = 1e-12) -> SegmentsResult:
    """Integrate sqrt(V) over every segment [xs[i], xs[i+1]] at once.

    Each segment gets the 10-point Gauss-Legendre rule on it and on its
    two halves; the halves' sum is accepted when it differs from the
    whole by at most ``tol``.  The segments that miss are bisected, all
    at once, each half against half the tolerance, so every segment's
    total stays within ``tol``.  A segment still missing after
    ``_MAX_DEPTH`` bisections raises QuadratureError.  V is evaluated
    through ``p.value_fn_np`` and screened by ``_screen``.

    Parameters
    ----------
    p : Potential
    xs : sequence of float
        Strictly increasing points of [p.a, p.b], at least two.
    tol : float
        Absolute tolerance per segment.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or len(xs) < 2 or not np.all(xs[1:] > xs[:-1]):
        raise ValueError("need at least two strictly increasing points")
    if not (p.a <= xs[0] and xs[-1] <= p.b):
        raise ValueError(f"need points in [p.a, p.b], got [{xs[0]}, {xs[-1]}]")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    fv = p.value_fn_np
    v_floor = _v_floor(p)
    evals = 0

    def rule(lo, hi):
        nonlocal evals
        half = 0.5 * (hi - lo)
        x = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_X
        try:
            with np.errstate(all="ignore"):
                v = np.broadcast_to(fv(x), x.shape)  # a constant V comes back as a scalar
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise QuadratureError(
                f"potential evaluation failed on [{lo.min()}, {hi.max()}]: {exc}"
            ) from None
        evals += v.size
        bad = ~(np.isfinite(v) & (v >= v_floor))
        if bad.any():
            i = np.flatnonzero(bad)[0]
            _screen(p, float(x.flat[i]), float(v.flat[i]), v_floor)
        return half * (np.sqrt(v) @ _GL_W)

    values = np.zeros(len(xs) - 1)
    owner = np.arange(len(values))
    lo, hi = xs[:-1], xs[1:]
    whole = rule(lo, hi)
    bisections = depth = 0
    error = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        m = len(lo)
        halves = rule(np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = halves[:m], halves[m:]
        refined = left + right
        gap = np.abs(whole - refined)
        miss = gap > tol * 0.5**depth
        np.add.at(values, owner[~miss], refined[~miss])
        error += float(gap[~miss].sum())
        if not miss.any():
            return SegmentsResult(values, evals, bisections, error)
        if depth == _MAX_DEPTH:
            i = owner[np.flatnonzero(miss)[0]]
            raise QuadratureError(
                f"Gauss-Legendre did not reach tol={tol} after {_MAX_DEPTH} bisections "
                f"on [{xs[i]}, {xs[i + 1]}]"
            )
        depth += 1
        bisections += int(miss.sum())
        lo = np.concatenate([lo[miss], mid[miss]])
        hi = np.concatenate([mid[miss], hi[miss]])
        whole = np.concatenate([left[miss], right[miss]])
        owner = np.concatenate([owner[miss], owner[miss]])
