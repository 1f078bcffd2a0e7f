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
evaluated.  Where V ~ c |x - end|**gamma, U ~ (1/4 - nu^2)/xi^2 with
nu = 1/(2 + gamma), and the solution vanishing at the end is close to
its Bessel reference sqrt(xi) J_nu(lambda xi) (Olver, Asymptotics and
Special Functions, ch. 12).  Each sliver is seeded from that reference
on a ladder of offsets that halve from the bulk's edge toward the end
(``_ladder``, built once per potential), at the widest offset where
lambda xi <= _Z0, and the seed is checked by halving: RK45 carries the
seed of the next offset in up to it, and the gap must stay below
_SEED_SHARE of rtol * max(lambda D_bulk, pi), D_bulk the bulk's length
in xi, or the check moves deeper; a sliver that reaches the end's ulp
unchecked raises PhaseError.  ``steps`` and ``rejected_steps`` count the
slivers' RK45 steps, checks included, ``cells`` the propagator's;
``error_estimate`` is the bulk's |fine - coarse| plus the slivers' gaps,
and never below _ULP_FLOOR ulp(theta_b), the rounding of the sweep.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from .expr import EvalDomainError
from .potential import Potential
from .propagator import bulk_interval, bulk_mesh, propagate_lanes
from .quadrature import QuadratureError, _graded_xi, _power_tail

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

# largest lambda xi a sliver is seeded at: below j_(nu,1) > j_(0,1) = 2.405 for every nu > 0
_Z0 = 2.0

# terms of the seed's series in -z^2/4, |.| <= 1: the last is below 1/(13!)^2 ~ 2.6e-20
_SERIES_TERMS = 14

# share of rtol * max(lambda D_bulk, pi) that a sliver's halving check may leave
_SEED_SHARE = 0.25

# the check's RK45 runs at this share of rtol, so its own error stays well below the gap it reads
_CHECK_RTOL = 0.25

# RK45 steps allowed on the end slivers of one phase call
_MAX_STEPS = 10_000_000

# the least error_estimate, in ulp(theta_b): the sweep's sums of cell angles round by up to 6 ulp on (1+x)^(-4)
_ULP_FLOOR = 8.0


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
    error_estimate: float = 0.0  # |fine - coarse| on the propagator plus the slivers' seed gaps, floored


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
# the end slivers: Bessel seeds on a ladder of offsets, checked by halving
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Ladder:
    """A singular end's offsets x_k = end +/- w 2**-k, k = 0, 1, ..., and its Bessel reference there.

    x_0 is the bulk's edge, so w is the sliver's width.  xi[k] is
    int sqrt(V) from the end to x_k and q[k] = (V_t/(4V)) xi/sqrt(V) at
    x_k, V_t the derivative in the distance t to the end; coef[m] =
    1/(m! (nu+1)_m) with nu = 1/(2 + gamma).  None of it depends on lambda.
    """

    x: list
    xi: list
    q: list
    nu: float
    coef: tuple

    def seed(self, lam: float, k: int) -> float:
        """The angle at x_k, on the scale lam sqrt(V), of g = sqrt(xi) J_nu(lam xi) taken as the solution's (g, dg/dxi)."""
        z = lam * self.xi[k]
        return math.atan2(z, _log_derivative(z, self.nu, self.coef) - self.q[k])


def _log_derivative(z: float, nu: float, coef) -> float:
    """xi g'/g = 1/2 + z J_nu'(z)/J_nu(z) for g = sqrt(xi) J_nu(lam xi), z = lam xi <= _Z0.

    Up to a constant g is xi**(nu+1/2) S0 with S0 = sum_m coef[m] (-z^2/4)**m,
    so xi g'/g = nu + 1/2 + 2 S1/S0 with S1 = sum_m m coef[m] (-z^2/4)**m;
    S0 > 0 below the first zero of J_nu, and no Gamma function is needed.
    """
    y = -0.25 * z * z
    s0 = s1 = 0.0
    for m in range(len(coef) - 1, -1, -1):
        s0 = s0 * y + coef[m]
        s1 = s1 * y + m * coef[m]
    return nu + 0.5 + 2.0 * s1 / s0


def _ladder(p: Potential, end: str) -> _Ladder:
    """The end's ladder, built once per potential and cached on it.

    x_k runs from the bulk's edge toward the end until the offset stops
    moving x, or it, V, V' or xi leaves the normal range.  xi comes from
    ``quadrature._graded_xi``, the octave panels [t_(k+1), t_k] down to
    its floor and the leading power with its first correction there,
    and from that correction (``quadrature._power_tail``) at the deeper
    levels.
    """
    ladders = p.sliver_ladders
    if end in ladders:
        return ladders[end]
    x_l, x_r = bulk_interval(p)
    sign, anchor, gamma, x0 = (1.0, p.a, p.gamma_a, x_l) if end == "a" else (-1.0, p.b, p.gamma_b, x_r)
    width = abs(x0 - anchor)
    xs, ts, vs, betas = [], [], [], []
    while True:
        x = anchor + sign * math.ldexp(width, -len(xs)) if xs else x0
        t = abs(x - anchor)
        if not t >= sys.float_info.min or (ts and t == ts[-1]):
            break
        try:
            v, dv = p.value_d1_fn(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            break
        if not (0.0 < v < math.inf and math.isfinite(dv)):
            break
        xs.append(x)
        ts.append(t)
        vs.append(v)
        betas.append(sign * 0.25 * dv / v)
    t, sq, beta = np.array(ts), np.sqrt(vs), np.array(betas)
    xi = _power_tail(t, sq, beta, gamma)[0]
    graded = _graded_xi(p, end, x0)[0]
    deep = min(len(graded), len(xi))
    xi[:deep] = graded[:deep]
    nu = 1.0 / (2.0 + gamma)
    coef = [1.0]
    for m in range(1, _SERIES_TERMS):
        coef.append(coef[-1] / (m * (nu + m)))
    levels = int(np.count_nonzero(xi >= sys.float_info.min))  # xi falls with t, and may underflow first
    ladder = _Ladder(xs[:levels], xi[:levels].tolist(), (beta * xi / sq)[:levels].tolist(), nu, tuple(coef))
    return ladders.setdefault(end, ladder)


def _sliver(p, lam, rtol, end, target):
    """Angle at the bulk's edge, on the scale lam sqrt(V), of the solution vanishing at ``end``.

    The Bessel seed of the ladder's first level k with lam xi_k <= _Z0 is
    checked by halving: RK45, at _CHECK_RTOL times rtol, carries the seed
    of level k+1 to x_k, and the gap to level k's own seed must be below
    ``target``.  Otherwise the check moves deeper, by one level or, once
    two gaps fall by half a level or more, to the level where their rate
    would meet the target.  RK45 then continues from x_k to the bulk's
    edge, in t = x from a or t = -x from b, so the angle grows from 0 at
    the end either way.  Returns (angle, steps, rejected, gap).
    """
    ladder = _ladder(p, end)
    xs, xi = ladder.x, ladder.xi
    fvd = p.value_d1_fn
    sqrt, sin = math.sqrt, math.sin
    sign = 1.0 if end == "a" else -1.0

    def rhs(t, th):
        x = sign * t
        v, dv = fvd(x)
        if not v > 0.0:
            raise PhaseError(f"potential fell to V({x}) = {v}")
        return lam * sqrt(v) + sign * 0.25 * dv / v * sin(2.0 * th)

    k = next((k for k, s in enumerate(xi) if lam * s <= _Z0), len(xi))
    check = _CHECK_RTOL * rtol
    steps = rejected = 0
    failed = []
    while True:
        if k + 1 >= len(xs):
            raise PhaseError(f"no Bessel seed of the sliver holds above one ulp of the end near {end}")
        theta, more, more_rejected = _rk45(rhs, sign * xs[k + 1], ladder.seed(lam, k + 1), sign * xs[k], check, check * _PI, _MAX_STEPS)
        steps += more
        rejected += more_rejected
        gap = abs(theta - ladder.seed(lam, k))
        if gap < target:
            break
        failed.append((k, gap))
        deeper = 1
        if len(failed) > 1 and target > 0.0:
            (k1, g1), (k2, g2) = failed[-2:]
            rate = (g2 / g1) ** (1.0 / (k2 - k1))
            if rate <= 0.5:
                deeper = max(math.ceil(math.log(target / g2) / math.log(rate)), 1)
        k = min(k + deeper, len(xs) - 1)
    if k > 0:
        theta, more, more_rejected = _rk45(rhs, sign * xs[k], theta, sign * xs[0], rtol, rtol * _PI, _MAX_STEPS)
        steps += more
        rejected += more_rejected
    return theta, steps, rejected, gap


def _ends(p, lam, rtol, x_l, x_r, length):
    """The slivers' angles: at x_l from a, and beta at x_r shot back from b, each 0 where the bulk reaches the end.

    Both are on the scale lam sqrt(V) at the bulk's end, and each
    sliver's check must meet _SEED_SHARE of rtol * max(lam * length, pi),
    ``length`` the bulk's xi-length.  Returns (theta_l, beta, steps,
    rejected, gap), with the slivers' RK45 counts and their gaps summed.
    """
    target = _SEED_SHARE * rtol * max(lam * length, _PI)
    theta_l, steps, rejected, gap = _sliver(p, lam, rtol, "a", target) if x_l > p.a else (0.0, 0, 0, 0.0)
    beta, more, more_rejected, more_gap = _sliver(p, lam, rtol, "b", target) if x_r < p.b else (0.0, 0, 0, 0.0)
    return theta_l, beta, steps + more, rejected + more_rejected, gap + more_gap


# ---------------------------------------------------------------------------
# phase and counting
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _phase_errors():
    """Raise a failure to evaluate V, or to meet a tolerance, as PhaseError."""
    try:
        yield
    except (EvalDomainError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise PhaseError(f"potential evaluation failed during phase integration: {exc}") from None
    except (ArithmeticError, QuadratureError) as exc:
        raise PhaseError(str(exc)) from None


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
    with _phase_errors():
        length = bulk_mesh(p, rtol).length if (x_l, x_r) != (p.a, p.b) else 0.0
        ends = [_ends(p, lam, rtol, x_l, x_r, length) for lam in lams]
        bulk = propagate_lanes(p, lams, rtol, [end[0] for end in ends])
    return [
        _result(lam, rtol, theta + beta, steps, rejected, cells, estimate + gap)
        for lam, (_, beta, steps, rejected, gap), (theta, cells, estimate) in zip(lams, ends, bulk)
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
    return PhaseResult(lam, theta_b, count, steps, rejected, cells, max(estimate, _ULP_FLOOR * math.ulp(theta_b)))


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
