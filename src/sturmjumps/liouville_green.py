"""Liouville-Green change of variable and the two-sided count bracket.

With xi = integral of sqrt(V) from a and g(xi) = V(x)**(1/4) * u(x), the
equation u'' = -lambda^2 V u becomes g'' = (-lambda^2 - U(xi)) g on
(0, D), where D = integral of sqrt(V) over the whole interval and

    U = V**(-3/4) * (V**(-1/4))''
      = (-V''/4 + 5 V'^2 / (16 V)) / V^2       (expanded to avoid
                                                 cancellation in tiny
                                                 fourth-root differences)

``u_from_jet`` is that one expression, used here and by the propagator's
cells; the integral of U over (0, D) is the cells' sum of h * Ubar.  Here
it runs on the formula's numpy jet (``Potential.jet2_fn``), once over
lg_data's grid or on one point; a U that is not finite raises.

For theorem-class potentials U is bounded, |U| <= C, and comparing
against the constant-coefficient problems at -lambda^2 -/+ C brackets
the eigenvalue count:

    ceil(D*sqrt(lambda^2 - C)/pi - 1) <= N(lambda)
                                      <= ceil(D*sqrt(lambda^2 + C)/pi - 1)

for every lambda > sqrt(C).  C is estimated here as the sampled maximum
of |U| on a Chebyshev grid times a 5% safety factor; that is a heuristic,
not a certified sup, which is why the factor exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import eval_jet2  # noqa: F401  perfbench/tracing.py wraps liouville_green.eval_jet2
from .potential import Potential, Regularity, chebyshev_grid
from .quadrature import integrate_sqrt_v, integrate_sqrt_v_segments

__all__ = ["LGData", "u_from_jet", "transformed_potential", "lg_data", "count_bracket"]

_PI = math.pi


@dataclass(frozen=True, eq=False)
class LGData:
    d: float
    c: float
    x: np.ndarray  # the Chebyshev grid, endpoints included
    xi: np.ndarray  # xi at each x
    u: np.ndarray  # U at each x
    xi_evaluations: int = 0  # V evaluations of the xi grid
    xi_bisections: int = 0  # segments of the xi grid that were bisected
    d_evaluations: int = 0  # V evaluations of D


def u_from_jet(v, d1, d2):
    """U from V, V' and V'' at the same points, scalars or arrays."""
    return (-0.25 * d2 + 0.3125 * d1 * d1 / v) / (v * v)


def _u_at(p: Potential, xs: np.ndarray) -> np.ndarray:
    """U at the points xs from one numpy jet of the formula; raises where U is not finite."""
    with np.errstate(all="ignore"):
        u = u_from_jet(*p.jet2_fn(xs))
    if not np.isfinite(u).all():  # V^2 underflows to 0, or a term overflows
        raise FloatingPointError(f"U is not finite at x={float(xs[np.argmin(np.isfinite(u))])!r}")
    return u


def transformed_potential(p: Potential, x: float) -> float:
    """U at x, from exact first and second derivatives of the formula."""
    if p.regularity is not Regularity.THEOREM:
        raise ValueError("the transformed potential is bounded only for theorem-class potentials")
    if not (p.a <= x <= p.b):
        raise ValueError(f"x={x} outside [{p.a}, {p.b}]")
    return float(_u_at(p, np.array([float(x)]))[0])


def lg_data(p: Potential, grid_points: int = 512) -> LGData:
    """Sample U on a Chebyshev grid, map x to xi, and bound |U| by C.

    The grid includes the endpoints (where suprema often sit).  U comes
    from one numpy jet over the grid, bit for bit ``transformed_potential``
    at each point.  xi is accumulated over the grid's segments, each
    integrated to 1e-12 in one vectorized Gauss-Legendre pass, so it is
    increasing by construction; D is ``integrate_sqrt_v``
    over the whole interval, the one the root finder uses.  The record
    carries the evaluation and bisection counts of both.
    """
    if grid_points < 200:
        raise ValueError("need at least 200 grid points")
    if p.regularity is not Regularity.THEOREM:
        raise ValueError("the count bracket applies to theorem-class potentials only")
    xs = chebyshev_grid(p.a, p.b, grid_points, include_endpoints=True)
    u = _u_at(p, xs)
    seg = integrate_sqrt_v_segments(p, xs)
    whole = integrate_sqrt_v(p, p.a, p.b)
    return LGData(
        d=whole.value,
        c=1.05 * float(np.max(np.abs(u))),
        x=xs,
        xi=np.concatenate([[0.0], np.cumsum(seg.values)]),
        u=u,
        xi_evaluations=seg.evaluations,
        xi_bisections=seg.bisections,
        d_evaluations=whole.evaluations,
    )


def count_bracket(lg: LGData, lam: float) -> tuple[int, int]:
    """Two-sided bracket for N(lambda); requires lambda > sqrt(C)."""
    if not lam > math.sqrt(lg.c):
        raise ValueError(f"bracket needs lambda > sqrt(C) = {math.sqrt(lg.c)!r}, got {lam!r}")
    lower = math.ceil(lg.d * math.sqrt(lam * lam - lg.c) / _PI - 1.0)
    upper = math.ceil(lg.d * math.sqrt(lam * lam + lg.c) / _PI - 1.0)
    return lower, upper
