"""Tanh-sinh quadrature for the phase-length integrals of sqrt(V).

The core, ``tanh_sinh``, takes any integrand; liouville_green also uses
it for the integral of the transformed potential.  The double-exponential substitution clusters nodes toward the endpoints,
so integrable endpoint behaviour like (x-a)**(gamma/2) with gamma/2 in
(-1, 0) is handled without potential-specific changes of variable.  Node
points never land exactly on the integration limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .potential import Potential, Regularity

__all__ = ["QuadResult", "QuadratureError", "integrate_sqrt_v", "tanh_sinh", "xi_of_x"]

_PI_2 = math.pi / 2.0


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def integrate_sqrt_v(
    p: Potential, x0: float, x1: float, tol: float = 1e-12, max_level: int = 12
) -> QuadResult:
    """Integrate sqrt(V) over [x0, x1] to absolute tolerance ``tol``.

    Parameters
    ----------
    p : Potential
    x0, x1 : float
        Sub-interval of [p.a, p.b] with x0 < x1.
    tol : float
        Absolute tolerance; levels are doubled until two successive
        trapezoid refinements differ by less than ``tol``.
    max_level : int
        Hard cap on refinements; exceeding it is an error, not a warning.

    Returns
    -------
    QuadResult
        value, an error estimate (last refinement difference) and the
        number of integrand evaluations.
    """
    if not (p.a <= x0 < x1 <= p.b):
        raise ValueError(f"need p.a <= x0 < x1 <= p.b, got [{x0}, {x1}]")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    fv = p.value_fn
    theorem = p.regularity is Regularity.THEOREM
    v_floor = 0.5 * p.c_lower if theorem and p.c_lower and p.c_lower > 0 else 0.0

    def f(x):
        try:
            v = fv(x)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise QuadratureError(f"potential evaluation failed at x={x}: {exc}") from None
        if v < 0.0:
            raise QuadratureError(f"negative potential encountered: V({x}) = {v}")
        if theorem and v < v_floor:
            raise QuadratureError(
                f"V({x}) = {v} fell below half the validated lower bound {p.c_lower}"
            )
        return math.sqrt(v)

    return tanh_sinh(f, x0, x1, tol, max_level)


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
