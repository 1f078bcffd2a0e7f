"""Prüfer-phase counting of negative Dirichlet eigenvalues.

For u'' = -lambda^2 V u a Prüfer angle is the angle of (sigma u, u') on a
scale sigma > 0, continued from 0 at an end where u vanishes; it crosses
each multiple of pi once, upward, at a zero of u.  With [x_l, x_r] the
bulk of ``propagator.bulk_interval``, the phase is the matched angle

    theta_b = alpha(x_r) + beta(x_r),

alpha the angle at x_r of the solution vanishing at a and beta that of
the solution vanishing at b, shot from b toward x_r (in t = -x), both on
the scale lambda sqrt(V(x_r)).  Where x_r = b, beta is 0 and alpha is
on the constant scale s = lambda sqrt(max(c_lower, 1)), or lambda when
no c_lower is declared: the usual theta(b).  The propagator picks that
scale and returns alpha on it.  theta_b is a multiple of pi exactly
where the two solutions match at x_r, i.e. at the jump couplings,
theta_b(lambda_n) = n pi, so by Sturm oscillation the number of strictly
negative eigenvalues is

    N(lambda) = ceil(theta_b/pi) - 1

away from them.  A theta_b/pi within the call's own resolution
rtol * max(theta_b/pi, 1) of an integer k counts as that jump, N = k - 1:
the new zero sits at b and the zero eigenvalue is not negative.

The cell propagator of ``propagator`` covers the bulk: all of [a, b] for
the theorem class and for every end with declared exponent 0.  On the
Liouville-Green scale xi = int sqrt(V) the equation becomes
g'' = -(lambda^2 + U) g, which a fixed mesh of cells carries across in
closed form (Ixaru's constant-perturbation method), at a cost that does
not grow with lambda.  ``rtol`` picks the mesh: it is built once per
potential and per decade of rtol, and every call also sweeps it with each
cell halved.  The halved sweep is the answer and |fine - coarse| its
``error_estimate``, which stays within rtol * max(theta, pi): a call that
misses refines a private copy of the mesh or raises PhaseError.
``phase`` is the one-lane case of ``_phases``, which runs each lane's
slivers and then sweeps every lane's bulk at once
(``propagator.propagate_lanes``); a lane's result does not depend on the
lanes beside it.

At a singular end (conjecture class, declared exponent not 0) U is
unbounded, and RK45 (``_rk45``) covers the sliver between the end and the
bulk on the Liouville-Green scale S = lambda sqrt(V), u = r sin(theta),
u' = S r cos(theta),

    theta' = lambda sqrt(V) + (V' / (4 V)) sin(2 theta),

with -V' in t = -x from b.  At theta = k*pi the sine vanishes and
theta' > 0, so an accepted step that crosses a multiple of pi downward is
an integration failure and raises PhaseError (between multiples theta may
dip; that is harmless).  Both slivers end on the scale lambda sqrt(V) at
the bulk's end: the left one's angle is the propagator's entry angle (0
at a regular end), the right one's is beta.  A singular end is never
evaluated: its sliver starts at end +/- delta, with lambda^2 V delta^2 =
_DELTA_TOL and delta at least the one ulp that moves the end, seeded from
the leading solution behaviour u ~ |x - end|, theta = atan(S delta), or
at the bulk's end where the offset reaches past it.  ``steps`` and
``rejected_steps`` count the slivers' RK45 steps, ``cells`` the
propagator's; ``error_estimate`` is the bulk's alone: the slivers carry
none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import EvalDomainError
from .potential import Potential
from .propagator import bulk_interval, propagate_lanes

__all__ = [
    "PhaseResult",
    "PhaseError",
    "AtJumpAmbiguity",
    "phase",
    "count_negative",
]

_PI = math.pi

# count_negative's default at-jump guard: theta_b/pi closer than this to an integer is ambiguous
JUMP_GUARD = 1e-7

# relative error of u ~ (x - a) allowed over the sliver skipped at a singular end
_DELTA_TOL = 1e-10

# RK45 steps allowed on the end slivers of one phase call
_MAX_STEPS = 10_000_000


class PhaseError(RuntimeError):
    pass


class AtJumpAmbiguity(RuntimeError):
    """theta_b/pi sits inside the guard band around an integer; the caller decides."""

    def __init__(self, lam: float, theta_b: float):
        super().__init__(
            f"lambda={lam!r} is numerically at a jump (theta_b/pi = {theta_b / _PI!r})"
        )
        self.lam = lam
        self.theta_b = theta_b


@dataclass(frozen=True)
class PhaseResult:
    lam: float
    theta_b: float  # the matched angle: theta(b) itself unless the right end is singular
    count: int
    steps: int  # RK45 steps on the end slivers (conjecture class; 0 for the theorem class)
    rejected_steps: int
    cells: int = 0  # propagator cells swept, the mesh's and their halves (both classes)
    error_estimate: float = 0.0  # |fine - coarse| on the propagator; the slivers carry none


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) scalar integrator with PI step control and FSAL
# ---------------------------------------------------------------------------

_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0


def _rk45(f, x, y, x_end, rtol, atol, max_steps):
    """Integrate dy/dx = f(x, y) from x to x_end; returns (y, steps, rejected)."""
    span = x_end - x
    k1 = f(x, y)

    # automatic initial step: Euler probe of the derivative's variation;
    # a too-large guess is simply rejected and halved on the first step
    sc = atol + rtol * abs(y)
    d1 = abs(k1) / sc
    h0 = 1e-6 * span if d1 < 1e-5 else min(0.01 / d1, span)
    f1 = f(x + h0, y + h0 * k1)
    d2 = abs(f1 - k1) / (h0 * sc)
    dm = max(d1, d2)
    h = min((0.01 / dm) ** 0.2 if dm > 1e-15 else span, span)

    steps = 0
    rejected = 0
    err_prev = 1.0
    while x < x_end:
        if steps >= max_steps:
            raise PhaseError(f"phase integration exceeded {max_steps} steps at x={x}")
        if x + h == x:
            raise PhaseError(f"step size underflow at x={x}")
        if x + h > x_end:
            h = x_end - x
        k2 = f(x + _C2 * h, y + h * (_A21 * k1))
        k3 = f(x + _C3 * h, y + h * (_A31 * k1 + _A32 * k2))
        k4 = f(x + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = f(x + _C5 * h, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = f(x + h, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = f(x + h, y_new)
        err_abs = abs(h) * abs(
            _E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7
        )
        sc = atol + rtol * max(abs(y), abs(y_new))
        err = err_abs / sc
        if err <= 1.0:
            # theta' > 0 at every multiple of pi: crossing one downward is a failure
            if y_new < y - sc and math.floor(y_new / _PI) < math.floor(y / _PI):
                raise PhaseError(f"phase crossed a multiple of pi downward at x={x}")
            x += h
            y = y_new
            k1 = k7
            steps += 1
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 1e-10 else 10.0
            h *= min(10.0, max(0.2, fac))
            err_prev = max(err, 1e-10)
        else:
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
    return y, steps, rejected


# ---------------------------------------------------------------------------
# singular-endpoint offsets
# ---------------------------------------------------------------------------


def _offset_delta(p: Potential, lam: float, end: str) -> float:
    """Offset delta with lam^2 * V(end +/- delta) * delta^2 <= _DELTA_TOL.

    The bound is the relative error of the leading solution behaviour
    u ~ (x - a) over the skipped sliver, found by bisection in log(delta)
    between hi = (b - a)/8 and a lo that meets it.  lo steps down from
    1e-30 (b - a) but not below the smallest offset that moves the end,
    where V is evaluated next to the end rather than at it.
    """
    fv = p.value_fn
    width = p.b - p.a
    anchor, inward = (p.a, p.b) if end == "a" else (p.b, p.a)
    ulp = abs(math.nextafter(anchor, inward) - anchor)

    def excess(delta):
        x = anchor + delta if end == "a" else anchor - delta
        try:
            v = fv(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            return math.inf
        if not math.isfinite(v):
            return math.inf
        return lam * lam * v * delta * delta - _DELTA_TOL

    hi = width / 8.0
    if excess(hi) <= 0.0:
        return hi
    lo = max(1e-30 * width, ulp)
    while excess(lo) > 0.0:
        if lo <= ulp:
            raise PhaseError(f"endpoint offset underflows machine precision near {end}")
        lo = max(lo * 1e-30, ulp)
    log_lo, log_hi = math.log(lo), math.log(hi)
    for _ in range(120):
        log_mid = 0.5 * (log_lo + log_hi)
        # a midpoint equal to an end is a fixed point once this update is made
        fixed = log_mid == log_lo or log_mid == log_hi
        if excess(math.exp(log_mid)) > 0.0:
            log_hi = log_mid
        else:
            log_lo = log_mid
        if fixed:
            break
    return math.exp(log_lo)


# ---------------------------------------------------------------------------
# phase and counting
# ---------------------------------------------------------------------------


def _sliver(p, lam, rtol, end, x_stop):
    """Angle at x_stop, on the scale lam sqrt(V), of the solution vanishing at ``end``.

    RK45 runs toward the bulk in t = x from a, or t = -x from b, so the
    angle grows from 0 at the end either way.  Returns (angle, steps, rejected).
    """
    fvd = p.value_d1_fn
    sqrt, sin = math.sqrt, math.sin
    sign = 1.0 if end == "a" else -1.0
    anchor = p.a if end == "a" else p.b

    def rhs(t, th):
        x = sign * t
        v, dv = fvd(x)
        if not v > 0.0:
            raise PhaseError(f"potential fell to V({x}) = {v}")
        return lam * sqrt(v) + sign * 0.25 * dv / v * sin(2.0 * th)

    # seeded from u ~ |x - end| at the offset, or at x_stop when the offset reaches it
    x0 = anchor + sign * _offset_delta(p, lam, end)
    if sign * x0 >= sign * x_stop:
        x0 = x_stop
    theta = math.atan(lam * sqrt(p.value_fn(x0)) * abs(x0 - anchor))
    if x0 == x_stop:
        return theta, 0, 0
    return _rk45(rhs, sign * x0, theta, sign * x_stop, rtol, rtol * _PI, _MAX_STEPS)


def _ends(p, lam, rtol, x_l, x_r):
    """The slivers' angles: at x_l from a, and beta at x_r shot back from b, each 0 where the bulk reaches the end.

    Both are on the scale lam sqrt(V) at the bulk's end.  Returns
    (theta_l, beta, steps, rejected), with the slivers' RK45 counts.
    """
    theta_l, steps, rejected = _sliver(p, lam, rtol, "a", x_l) if x_l > p.a else (0.0, 0, 0)
    beta, more, more_rejected = _sliver(p, lam, rtol, "b", x_r) if x_r < p.b else (0.0, 0, 0)
    return theta_l, beta, steps + more, rejected + more_rejected


def phase(p: Potential, lam: float, rtol: float = 1e-10) -> PhaseResult:
    """The matched phase theta_b(lambda) and the derived count N(lambda): one lane of ``_phases``."""
    return _phases(p, [lam], rtol)[0]


def _phases(p: Potential, lams, rtol: float) -> list[PhaseResult]:
    """``phase`` at every lambda of ``lams``; each result is the same in any batch.

    Each lane's end slivers run one lane at a time; the propagator then
    takes every lane's bulk at once (``propagate_lanes``).
    """
    if min(lams) <= 0.0:
        raise ValueError("lambda must be positive")
    if rtol <= 0.0:
        raise ValueError("rtol must be positive")
    x_l, x_r = bulk_interval(p)
    try:
        ends = [_ends(p, lam, rtol, x_l, x_r) for lam in lams]
        bulk = propagate_lanes(p, lams, rtol, [end[0] for end in ends])
    except (EvalDomainError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise PhaseError(f"potential evaluation failed during phase integration: {exc}") from None
    except ArithmeticError as exc:
        raise PhaseError(str(exc)) from None
    return [
        _result(lam, rtol, theta + beta, steps, rejected, cells, estimate)
        for lam, (_, beta, steps, rejected), (theta, cells, estimate) in zip(lams, ends, bulk)
    ]


def _result(lam, rtol, theta_b, steps, rejected, cells, estimate):
    t = theta_b / _PI
    nearest = round(t)
    if abs(t - nearest) < rtol * max(t, 1.0):
        # at a jump, to the call's own tolerance, the new zero sits at
        # x = b and the zero eigenvalue is excluded from the count
        count = int(nearest) - 1
    else:
        count = math.ceil(t) - 1
    count = max(count, 0)
    return PhaseResult(lam, theta_b, count, steps, rejected, cells, estimate)


def count_negative(
    p: Potential,
    lam: float,
    rtol: float = 1e-10,
    jump_guard: float = JUMP_GUARD,
) -> int:
    """N(lambda), guarding against lambda landing numerically on a jump.

    Inside the guard band the count is genuinely ambiguous at the working
    tolerance and AtJumpAmbiguity (carrying theta_b) is raised so the
    caller can decide; tighten ``jump_guard`` together with ``rtol`` when
    probing deliberately close to a jump.  Outside it the count is
    ``phase``'s.
    """
    result = phase(p, lam, rtol=rtol)
    t = result.theta_b / _PI
    if abs(t - round(t)) < jump_guard:
        raise AtJumpAmbiguity(lam, result.theta_b)
    return result.count
