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

away from them.  One rule decides whether lambda sits on a jump: it is at
jump k when |theta_b - k pi| <= error_estimate, the call's own error bar.
There the count is k - 1, N = ceil((theta_b - error_estimate)/pi) - 1,
since the new zero may sit at b and the zero eigenvalue is not negative,
and ``count_negative`` raises AtJumpAmbiguity instead.

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
``phase`` is the one-lane case of ``_phases``, which runs every lane's
slivers in stacked solves and then sweeps every lane's bulk at once
(``propagator.propagate_lanes``); a lane's result does not depend on the
lanes beside it.

At a singular end (conjecture class, declared exponent not 0) U is
unbounded, and a sliver between the end and the bulk is carried in the
distance t to the end, u'' = -lambda^2 V u, by 10-stage Gauss-Legendre
collocation in Nyström form, the implicit Runge-Kutta method of order 20
(Hairer & Wanner, Solving ODEs II, sec. IV.5).  Its angle is read on the
scale S = lambda sqrt(V), u = r sin(theta), u' = S r cos(theta), at the
bulk's end: the left one's is the propagator's entry angle (0 at a
regular end), the right one's is beta.  A singular end is never
evaluated.  Where V ~ c |x - end|**gamma, U ~ (1/4 - nu^2)/xi^2 with
nu = 1/(2 + gamma), and the solution vanishing at the end is close to
its Bessel reference sqrt(xi) J_nu(lambda xi) (Olver, Asymptotics and
Special Functions, ch. 12).  Each sliver is seeded from it on a ladder
of offsets that halve from the bulk's edge toward the end (``_ladder``,
its levels built as a sliver reaches them), at the widest offset where
lambda xi <= _Z0, and the seed is checked by halving: collocation
carries the next offset's seed across the octave between them, and the
gap must stay below _SEED_SHARE of rtol * max(lambda D_bulk, pi),
D_bulk the bulk's length in xi, or the check moves deeper; a sliver whose
ladder runs out of levels unchecked raises PhaseError.  The carry then
crosses the octaves to the bulk's edge, each cut into 2**m pieces of
lambda Delta xi <= _PIECE_Z, every piece carried whole and on its
halves: the halves give the answer, and the pieces' |fine - coarse| on
a sliver must sum below the same target, or PhaseError is raised.
``steps`` counts the slivers' cells, ``rejected_steps`` their failed
checks, ``cells`` the propagator's; ``error_estimate`` is the bulk's
|fine - coarse| plus the slivers' errors (``_slivers``), and never below
_ULP_FLOOR ulp(theta_b), the rounding of the sweep.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .expr import EvalDomainError, eval_jet2
from .potential import Potential
from .propagator import _S, bulk_interval, bulk_mesh, propagate_lanes
from .quadrature import _GL_W, _GL_X, QuadratureError, _graded_xi, _power_tail

__all__ = [
    "PhaseResult",
    "PhaseError",
    "AtJumpAmbiguity",
    "phase",
    "count_negative",
]

_PI = math.pi
_TWO_PI = 2.0 * math.pi

# largest lambda xi a sliver is seeded at: below j_(nu,1) > j_(0,1) = 2.405 for every nu > 0
_Z0 = 2.0

# terms of the seed's series in -z^2/4, |.| <= 1: the last is below 1/(13!)^2 ~ 2.6e-20
_SERIES_TERMS = 14

# share of rtol * max(lambda D_bulk, pi) that a sliver's halving check may leave
_SEED_SHARE = 0.25

# a passing check's seed error over its gap: the gap itself where seeds improve by half a level, as on pure powers;
# twice it covers rates up to 2/3, against 0.54 measured on (1-x)/x at b (error 1.15 gaps at lambda = 10, rtol 1e-12)
_SEED_ERROR = 2.0

# largest lambda Delta xi of a collocation piece: an octave of x reads |fine - coarse| 2e-16 at 2, 6e-12 at 4, 1.6e-6 at 8
_PIECE_Z = 2.0

# the least error_estimate, in ulp(theta_b): the sweep's sums of cell angles round by up to 6 ulp on (1+x)^(-4)
_ULP_FLOOR = 8.0


class PhaseError(RuntimeError):
    pass


class AtJumpAmbiguity(RuntimeError):
    """theta_b sits within the call's error bar, or the caller's guard band, of a jump; the caller decides."""

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
    steps: int  # collocation cells on the end slivers (conjecture class; 0 for the theorem class)
    rejected_steps: int  # the slivers' seed levels whose halving check failed
    cells: int = 0  # propagator cells swept, the mesh's and their halves (both classes)
    error_estimate: float = 0.0  # |fine - coarse| on the propagator plus the slivers' errors, floored


# ---------------------------------------------------------------------------
# the end slivers: Bessel seeds on a ladder of octaves, carried by collocation
# ---------------------------------------------------------------------------

# 10-stage Gauss-Legendre collocation on [0, 1] in Nyström form: the nodes c,
# A^2 with A = S/2 the collocation matrix, the rows b (1 - c) and b that sum a
# cell's stages into u and h u', the stages' two starts (1, 0) and (0, 1/h)
# negated, and what turns the sums into a transfer's rows
_C = 0.5 * (_GL_X + 1.0)
_A2 = (0.5 * _S) @ (0.5 * _S)
_SUMS = np.stack([0.25 * _GL_W * (1.0 - _GL_X), 0.5 * _GL_W])
_STARTS = -np.stack([np.ones_like(_C), _C], axis=1)
_OFFSETS = np.array([1.0, 1.0, 0.0, 1.0])
_EYE = np.eye(len(_C))


@dataclass(eq=False)
class _Ladder:
    """A singular end's offsets x_k = end +/- w 2**-k, k = 0, 1, ..., and its Bessel reference there.

    x_0 is the bulk's edge.  xi[k] is int sqrt(V) from the end to x_k,
    sq[k] = sqrt(V(x_k)) and q[k] = (V_t/(4V)) xi/sqrt(V) at x_k, V_t the
    derivative in the distance t to the end; coef[m] = 1/(m! (nu+1)_m)
    with nu = 1/(2 + gamma).  Levels are built as a sliver reaches them
    (``reach``), octave k's cells as a sliver first carries it
    (``octave``); none of it depends on lambda.
    """

    p: Potential
    end: str  # "a" or "b"
    sign: float
    anchor: float
    x0: float
    gamma: float
    graded: list  # xi of the first levels, from quadrature._graded_xi
    nu: float
    coef: tuple
    x: list = field(default_factory=list)
    xi: list = field(default_factory=list)
    sq: list = field(default_factory=list)
    q: list = field(default_factory=list)
    ended: bool = False
    cells: dict = field(default_factory=dict)

    def seed(self, lam: float, k: int) -> float:
        """The angle at x_k, on the scale lam sqrt(V), of g = sqrt(xi) J_nu(lam xi) taken as the solution's (g, dg/dxi)."""
        z = lam * self.xi[k]
        return math.atan2(z, _log_derivative(z, self.nu, self.coef) - self.q[k])

    def reach(self, k: int) -> bool:
        """Whether level k exists, building the levels up to it first.

        The ladder ends where the offset stops moving x, where it or xi
        leaves the normal range, or where V is not positive or its jet
        (V, V', V'' by ``eval_jet2``) is not finite.  xi is the graded
        quadrature's where it reaches, and the leading power with its first
        correction (``quadrature._power_tail``) deeper.
        """
        while len(self.x) <= k and not self.ended:
            n = len(self.x)
            x = self.anchor + self.sign * math.ldexp(abs(self.x0 - self.anchor), -n) if n else self.x0
            t = abs(x - self.anchor)
            self.ended = True
            if not t >= sys.float_info.min or (n and t == abs(self.x[-1] - self.anchor)):
                break
            try:
                v, dv, _ = eval_jet2(self.p.ast, x)
            except ArithmeticError:
                break
            if not (0.0 < v < math.inf and math.isfinite(dv)):
                break
            sq, beta = math.sqrt(v), self.sign * 0.25 * dv / v
            xi = self.graded[n] if n < len(self.graded) else _power_tail(t, sq, beta, self.gamma)[0]
            if not xi >= sys.float_info.min:  # xi falls with t, and may underflow first
                break
            self.ended = False
            self.x.append(x)
            self.xi.append(xi)
            self.sq.append(sq)
            self.q.append(beta * xi / sq)
        return k < len(self.x)

    def octave(self, k: int, m: int):
        """(1, h, 1/h, 1) and h^2 V at the Gauss nodes of octave k's 2**m equal pieces in t, each followed by its two halves."""
        key = (k, m)
        if key not in self.cells:
            x1, x0 = self.x[k + 1], self.x[k]
            edges = x1 + (x0 - x1) * np.arange(2 * 2**m + 1) / (2 * 2**m)  # the pieces' halves' ends, from x_(k+1)
            edges[-1] = x0
            lo = np.stack([edges[:-2:2], edges[:-2:2], edges[1:-1:2]], axis=1).ravel()
            hi = np.stack([edges[2::2], edges[1:-1:2], edges[2::2]], axis=1).ravel()
            half = 0.5 * (hi - lo)  # signed: t grows from lo to hi
            x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_X
            with np.errstate(all="ignore"):
                v = np.broadcast_to(self.p.value_fn_np(x), x.shape)  # a constant V comes back as a scalar
            bad = ~(np.isfinite(v) & (v > 0.0))
            if bad.any():
                i = np.flatnonzero(bad)[0]
                raise PhaseError(f"potential fell to V({float(x.flat[i])}) = {float(v.flat[i])}")
            h = 2.0 * np.abs(half)
            self.cells[key] = (np.stack([np.ones_like(h), h, 1.0 / h, np.ones_like(h)], axis=1), (h * h)[:, None] * v)
        return self.cells[key]


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
    """The end's ladder, made once per potential and cached on it, with its graded xi; its levels come on demand."""
    ladders = p.sliver_ladders
    if end in ladders:
        return ladders[end]
    x_l, x_r = bulk_interval(p)
    sign, anchor, gamma, x0 = (1.0, p.a, p.gamma_a, x_l) if end == "a" else (-1.0, p.b, p.gamma_b, x_r)
    nu = 1.0 / (2.0 + gamma)
    coef = [1.0]
    for m in range(1, _SERIES_TERMS):
        coef.append(coef[-1] / (m * (nu + m)))
    graded = _graded_xi(p, end, x0)[0].tolist()
    ladder = _Ladder(p, end, sign, anchor, x0, gamma, graded, nu, tuple(coef))
    return ladders.setdefault(end, ladder)


def _transfers(jobs) -> list:
    """Each job's cell transfers: (ladder, lam, k) is the ladder's octave k at lam, cut by ``_pieces``.

    A cell of length h solves (I + lam^2 h^2 diag(V) A^2) G = -lam^2 h^2
    V (u0 + h c u0') for the starts (u0, u0') = (1, 0) and (0, 1/h); then
    u1 = u0 + h u0' + sum b (1 - c) G and h u1' = h u0' + sum b G give
    its row (T11, T12, T21, T22).  All cells go in one stacked solve, and
    each has the same bits in any stack.
    """
    parts = [ladder.octave(k, _pieces(ladder, lam, k)) for ladder, lam, k in jobs]
    w = np.repeat([lam * lam for _, lam, _ in jobs], [len(part[0]) for part in parts])[:, None]
    w = (w * np.concatenate([part[1] for part in parts]))[:, :, None]
    g = np.linalg.solve(_EYE + w * _A2, w * _STARTS)
    rows = (((_SUMS @ g).reshape(-1, 4) + _OFFSETS) * np.concatenate([part[0] for part in parts])).tolist()
    return [rows[i - len(part[0]) : i] for part, i in zip(parts, itertools.accumulate(len(part[0]) for part in parts))]


def _pieces(ladder: _Ladder, lam: float, k: int) -> int:
    """The least m that cuts octave k into 2**m pieces of lam Delta xi <= _PIECE_Z."""
    z, m = lam * (ladder.xi[k] - ladder.xi[k + 1]), 0
    while z > _PIECE_Z:
        z *= 0.5
        m += 1
    return m


def _carry(cells, u, du):
    """(u, u') carried across an octave's pieces on their halves, the answer, and from the same start on the whole pieces."""
    uc, dc = u, du
    for i in range(0, len(cells), 3):
        (w11, w12, w21, w22), (a11, a12, a21, a22), (b11, b12, b21, b22) = cells[i : i + 3]
        uc, dc = w11 * uc + w12 * dc, w21 * uc + w22 * dc
        u, du = a11 * u + a12 * du, a21 * u + a22 * du
        u, du = b11 * u + b12 * du, b21 * u + b22 * du
    return u, du, uc, dc


def _branch(phi: float, near: float) -> float:
    """The angle phi + 2 pi j nearest ``near``."""
    return phi + _TWO_PI * round((near - phi) / _TWO_PI)


def _slivers(tasks) -> list:
    """Each task's angle at the bulk's edge, on the scale lam sqrt(V), of the solution vanishing at its end.

    A task is (ladder, lam, target).  No cell's transfer depends on the
    angle carried into it, so a round's octaves, checks and continuations
    alike, go into one stacked solve for all tasks.  The check starts at
    the first level k with lam xi_k <= _Z0 and moves deeper, by one level
    or, once two gaps fall by half a level or more, to where their rate
    would meet the target.  It carries level k+1's seed across octave k,
    the answer's first octave, and a task whose check holds is carried on
    to the bulk's edge in the same round.  The angle is read at each
    octave's end on the branch nearest its advance lam Delta xi, from
    which it strays by at most |ln V(t_k)/V(t_(k+1))|/4.  Returns one
    (angle, cells, rejected, error) per task, error being _SEED_ERROR
    times the seed gap plus the pieces' |fine - coarse|.
    """
    ks = [next(k for k in itertools.count() if not (ladder.reach(k) and lam * ladder.xi[k] > _Z0)) for ladder, lam, _ in tasks]
    cells = [[] for _ in tasks]  # each task's octaves 0, 1, ... so far: their pieces' transfers
    failed = [[] for _ in tasks]
    out = [None] * len(tasks)
    missed = []  # tasks whose pieces miss the target, raised once no ladder can run out first
    pending = range(len(tasks))
    while pending:
        jobs = []
        for i in pending:
            ladder = tasks[i][0]
            if not ladder.reach(ks[i] + 1):
                raise PhaseError(
                    f"the ladder near {ladder.end} ran out of levels before a seed check held: it ends where the offset "
                    "stops moving x, where it or xi leaves the normal range, or where V is not positive or its jet not finite"
                )
            jobs += [(i, k) for k in range(len(cells[i]), ks[i] + 1)]
        for (i, _), octave in zip(jobs, _transfers([(*tasks[i][:2], k) for i, k in jobs])):
            cells[i].append(octave)
        still = []
        for i in pending:
            (ladder, lam, target), k = tasks[i], ks[i]
            xi, sq = ladder.xi, ladder.sq
            theta = ladder.seed(lam, k + 1)
            u, du, miss = math.sin(theta), lam * sq[k + 1] * math.cos(theta), 0.0
            for j in range(k, -1, -1):  # octave k checks the seed; the rest follow once it holds
                u, du, uc, dc = _carry(cells[i][j], u, du)
                s = lam * sq[j]
                theta = _branch(math.atan2(s * u, du), theta + lam * (xi[j] - xi[j + 1]))
                if j == k:
                    gap = abs(theta - ladder.seed(lam, k))
                    if not gap < target:
                        break
                miss += abs(_branch(math.atan2(s * uc, dc), theta) - theta)
            else:
                if miss > target:
                    missed.append(i)
                out[i] = (theta, sum(len(octave) for octave in cells[i]), len(failed[i]), _SEED_ERROR * gap + miss)
                continue
            failed[i].append((k, gap))
            deeper = 1
            if len(failed[i]) > 1 and target > 0.0:
                (k1, g1), (k2, g2) = failed[i][-2:]
                rate = (g2 / g1) ** (1.0 / (k2 - k1))
                if rate <= 0.5:
                    deeper = max(math.ceil(math.log(target / g2) / math.log(rate)), 1)
            ladder.reach(k + deeper)
            ks[i] = min(k + deeper, len(ladder.x) - 1)
            still.append(i)
        pending = still
    if missed:
        ladder, lam, _ = tasks[min(missed)]
        raise PhaseError(f"the sliver's collocation cells near {ladder.end} miss rtol at lambda={lam!r}")
    return out


def _ends(p, lams, rtol, x_l, x_r, length):
    """The slivers' angles: at x_l from a, and beta at x_r shot back from b, each 0 where the bulk reaches the end.

    Both are on the scale lam sqrt(V) at the bulk's end, and each
    sliver's check must meet _SEED_SHARE of rtol * max(lam * length, pi),
    ``length`` the bulk's xi-length; both ends' slivers go through one
    ``_slivers`` call.  Returns one (theta_l, beta, cells, rejected, gap)
    per lane, with the slivers' counts and gaps summed.
    """
    targets = [_SEED_SHARE * rtol * max(lam * length, _PI) for lam in lams]
    ends = [end for end, cut in (("a", x_l > p.a), ("b", x_r < p.b)) if cut]
    slivers = _slivers([(_ladder(p, end), lam, target) for end in ends for lam, target in zip(lams, targets)])
    none = [(0.0, 0, 0, 0.0)] * len(lams)
    left = slivers[: len(lams)] if x_l > p.a else none
    right = slivers[-len(lams) :] if x_r < p.b else none
    return [(a[0], b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]) for a, b in zip(left, right)]


# ---------------------------------------------------------------------------
# phase and counting
# ---------------------------------------------------------------------------


def _phase_error(exc: Exception) -> PhaseError:
    """A failure to evaluate V, or to meet a tolerance, as PhaseError."""
    if isinstance(exc, (EvalDomainError, ValueError, ZeroDivisionError, OverflowError)):
        return PhaseError(f"potential evaluation failed during phase integration: {exc}")
    return PhaseError(str(exc))


def phase(p: Potential, lam: float, rtol: float = 1e-10) -> PhaseResult:
    """The matched phase theta_b(lambda) and the derived count N(lambda): one lane of ``_phases``."""
    return _phases(p, (lam,), rtol)[0]


def _phases(p: Potential, lams, rtol: float) -> list[PhaseResult]:
    """``phase`` at every lambda of ``lams``; each result is the same in any batch.

    Every lane's end slivers go through stacked collocation solves
    (``_ends``); the propagator then takes every lane's bulk at once
    (``propagate_lanes``).  rtol and every lambda must be finite and > 0.
    """
    for lam in lams:
        if not 0.0 < lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol!r}")
    x_l, x_r = bulk_interval(p)
    try:
        if (x_l, x_r) == (p.a, p.b):  # no singular end, no sliver
            bulk = propagate_lanes(p, lams, rtol, [0.0] * len(lams))
            return [_result(lam, *lane) for lam, lane in zip(lams, bulk)]
        ends = _ends(p, lams, rtol, x_l, x_r, bulk_mesh(p, rtol).length)
        bulk = propagate_lanes(p, lams, rtol, [end[0] for end in ends])
    except (ArithmeticError, ValueError, QuadratureError) as exc:
        raise _phase_error(exc) from None
    return [
        _result(lam, theta + beta, cells, estimate + gap, steps, rejected)
        for lam, (_, beta, steps, rejected, gap), (theta, cells, estimate) in zip(lams, ends, bulk)
    ]


def _result(lam, theta_b, cells, estimate, steps=0, rejected=0):
    # within the error bar above k pi the count is k - 1: the new zero may sit at x = b, and the zero
    # eigenvalue is not negative
    bar = max(estimate, _ULP_FLOOR * math.ulp(theta_b))
    return PhaseResult(lam, theta_b, max(math.ceil((theta_b - bar) / _PI) - 1, 0), steps, rejected, cells, bar)


def count_negative(p: Potential, lam: float, rtol: float = 1e-10, jump_guard: float = 0.0) -> int:
    """N(lambda), refusing where lambda sits on a jump: ``phase``'s count elsewhere.

    lambda is at jump k when |theta_b - k pi| <= max(error_estimate, pi *
    jump_guard); there AtJumpAmbiguity (carrying theta_b) is raised so the
    caller can decide.  At the default guard of 0 that is exactly where
    ``phase``'s count takes k - 1 within the error bar; a positive
    ``jump_guard`` widens the band to |theta_b/pi - k| <= jump_guard.
    """
    result = phase(p, lam, rtol=rtol)
    if abs(result.theta_b - _PI * round(result.theta_b / _PI)) <= max(result.error_estimate, _PI * jump_guard):
        raise AtJumpAmbiguity(lam, result.theta_b)
    return result.count
