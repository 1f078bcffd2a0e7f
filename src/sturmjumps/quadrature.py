"""Quadrature for the phase-length integrals of sqrt(V).

Two rules, each with its own job:

* Tanh-sinh (``tanh_sinh``, ``integrate_sqrt_v``) handles the full phase
  length D, the integral of the transformed potential in
  liouville_green, and the singular conjecture-class ends.  The
  double-exponential substitution clusters nodes toward the endpoints,
  so integrable endpoint behaviour like (x-a)**(gamma/2) with gamma/2 in
  (-1, 0) is handled without potential-specific changes of variable.
  Node points never land exactly on the integration limits.
* Composite 10-point Gauss-Legendre (``integrate_sqrt_v_segments``)
  handles the theorem-class xi grid: every segment is short and sqrt(V)
  is smooth there, so one vectorized pass over all segments, with the
  few that miss the tolerance bisected, replaces one tanh-sinh integral
  per segment.

Both screen V the same way: a non-finite value, a negative one, or for
the theorem class one below half the validated lower bound raises
QuadratureError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potential import Potential, Regularity

__all__ = [
    "QuadResult",
    "QuadratureError",
    "SegmentsResult",
    "integrate_sqrt_v",
    "integrate_sqrt_v_segments",
    "tanh_sinh",
    "xi_of_x",
]

_PI_2 = math.pi / 2.0

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


def _v_floor(p: Potential) -> float:
    if p.regularity is Regularity.THEOREM and p.c_lower and p.c_lower > 0:
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
            f"V({x}) = {v} fell below half the validated lower bound {p.c_lower}"
        )


def integrate_sqrt_v(p: Potential, x0: float, x1: float, tol: float = 1e-12) -> QuadResult:
    """Integrate sqrt(V) over [x0, x1] to absolute tolerance ``tol``.

    Parameters
    ----------
    p : Potential
    x0, x1 : float
        Sub-interval of [p.a, p.b] with x0 < x1.
    tol : float
        Absolute tolerance; levels are doubled until two successive
        trapezoid refinements differ by less than ``tol``, and missing
        it is an error, not a warning.

    Returns
    -------
    QuadResult
        value, an error estimate (last refinement difference) and the
        number of integrand evaluations.

    Where V blows up (declared exponent gamma < 0) at an end of the
    potential that is not 0, part of the integral lies within the last
    ulps of that end, where doubles cannot place the nodes: about
    2e-8 of it for gamma = -1 at b = 1.  When tanh-sinh then does not
    converge, it is run again up to r = sqrt(ulp * (b - a)) short of
    that end, where the nodes still resolve V, and the rest is added as
    sqrt(V) r / (1 + gamma/2), the integral of the leading behaviour
    |x - end|**(gamma/2); its next-order term, about that times
    r / (b - a), joins the error estimate.
    """
    if not (p.a <= x0 < x1 <= p.b):
        raise ValueError(f"need p.a <= x0 < x1 <= p.b, got [{x0}, {x1}]")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    fv = p.value_fn
    v_floor = _v_floor(p)

    def f(x):
        try:
            v = fv(x)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise QuadratureError(f"potential evaluation failed at x={x}: {exc}") from None
        _screen(p, x, v, v_floor)
        return math.sqrt(v)

    try:
        return tanh_sinh(f, x0, x1, tol)
    except QuadratureError:
        if not (x0 == p.a and p.gamma_a < 0.0 or x1 == p.b and p.gamma_b < 0.0):
            raise
    width = p.b - p.a
    tail = error = 0.0
    cuts = 0
    for end, gamma, inward in ((p.a, p.gamma_a, 1.0), (p.b, p.gamma_b, -1.0)):
        if gamma < 0.0 and end in (x0, x1):
            r = math.sqrt(abs(math.nextafter(end, end + inward) - end) * width)
            cut = end + inward * r
            part = f(cut) * r / (1.0 + 0.5 * gamma)
            tail += part
            error += part * r / width
            cuts += 1
            x0, x1 = (cut, x1) if inward > 0.0 else (x0, cut)
    res = tanh_sinh(f, x0, x1, tol)
    return QuadResult(res.value + tail, res.abs_error_estimate + error, res.evaluations + cuts)


def integrate_sqrt_v_segments(p: Potential, xs, tol: float = 1e-12) -> SegmentsResult:
    """Integrate sqrt(V) over every segment [xs[i], xs[i+1]] at once.

    Each segment gets the 10-point Gauss-Legendre rule on it and on its
    two halves; the halves' sum is accepted when it differs from the
    whole by at most ``tol``.  The segments that miss are bisected, all
    at once, each half against half the tolerance, so every segment's
    total stays within ``tol``.  A segment still missing after
    ``_MAX_DEPTH`` bisections raises QuadratureError.  V is evaluated
    through ``p.value_fn_np`` and screened like ``integrate_sqrt_v``.

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
    if tol <= 0.0:
        raise ValueError("tol must be positive")
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
    while True:
        mid = 0.5 * (lo + hi)
        m = len(lo)
        halves = rule(np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = halves[:m], halves[m:]
        refined = left + right
        miss = np.abs(whole - refined) > tol * 0.5**depth
        np.add.at(values, owner[~miss], refined[~miss])
        if not miss.any():
            return SegmentsResult(values, evals, bisections)
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


def tanh_sinh(f, x0: float, x1: float, tol: float, max_level: int = 12) -> QuadResult:
    """Integrate f over [x0, x1] to absolute tolerance ``tol``, never sampling x0 or x1.

    Levels halve the step until two successive trapezoid sums differ by
    less than ``tol``; exceeding ``max_level`` raises QuadratureError.
    """
    half = 0.5 * (x1 - x0)
    evals = 0
    trunc = tol * 1e-3

    def sample(t):
        # offset from the nearer endpoint keeps x accurate deep in the tails
        nonlocal evals
        u = _PI_2 * math.sinh(t)
        if u >= 0.0:
            d = half * 2.0 / (1.0 + math.exp(2.0 * u))
            x = x1 - d
            if x >= x1 or x <= x0:
                return None
        else:
            d = half * 2.0 / (1.0 + math.exp(-2.0 * u))
            x = x0 + d
            if x <= x0 or x >= x1:
                return None
        z = math.exp(-2.0 * abs(u))
        sech2 = 4.0 * z / ((1.0 + z) * (1.0 + z))
        evals += 1
        return half * _PI_2 * math.cosh(t) * sech2 * f(x)

    def sweep(h, stride, start):
        # trapezoid contributions at t = k*h for k = start, start+stride, ...
        vals = []
        k = start
        tiny_run = 0
        while True:
            c_pos = sample(k * h) if k > 0 or start == 0 else None
            c_neg = sample(-k * h) if k > 0 else None
            if k == 0:
                if c_pos is not None:
                    vals.append(c_pos)
                k += stride
                continue
            if c_pos is None and c_neg is None:
                break
            mag = 0.0
            if c_pos is not None:
                vals.append(c_pos)
                mag = max(mag, abs(c_pos))
            if c_neg is not None:
                vals.append(c_neg)
                mag = max(mag, abs(c_neg))
            if mag < trunc and k * h >= 3.0:
                tiny_run += 1
                if tiny_run >= 2:
                    break
            else:
                tiny_run = 0
            if k > 200000:
                break
            k += stride
        return math.fsum(vals)

    h = 1.0
    total = h * sweep(h, 1, 0)
    for level in range(1, max_level + 1):
        h *= 0.5
        total_new = 0.5 * total + h * sweep(h, 2, 1)
        err = abs(total_new - total)
        total = total_new
        if level >= 2 and err < tol:
            return QuadResult(total, err, evals)
    raise QuadratureError(
        f"tanh-sinh did not reach tol={tol} after level {max_level} on [{x0}, {x1}]"
    )


def xi_of_x(p: Potential, x: float, tol: float = 1e-12) -> float:
    """Phase variable xi(x) = integral of sqrt(V) from a to x; xi(a) = 0."""
    if not (p.a <= x <= p.b):
        raise ValueError(f"x={x} outside [{p.a}, {p.b}]")
    if x == p.a:
        return 0.0
    return integrate_sqrt_v(p, p.a, x, tol).value
