"""Prüfer phase from a lambda-uniform Liouville-Green cell propagator.

On the Liouville-Green scale xi = int sqrt(V) a solution u = V**(-1/4) g
obeys g'' = -(lambda^2 + U(xi)) g, with U the transformed potential of
liouville_green (``u_from_jet``).  The propagator covers
[x_l, x_r] = ``bulk_interval(p)``: all of [a, b] for the theorem
class, and [a, b] less a sliver at each
singular end for the conjecture class, where U is unbounded (the
slivers are left to ``oscillation``: a Bessel seed near each end, then
collocation toward the bulk).  A mesh splits that
interval, of length D in xi, into cells, each stored as six numbers: its
length h, the mean Ubar of U over it and U's Legendre P1 .. P4
coefficients c1 .. c4 in xi.  Over a cell
the constant-perturbation method (Ixaru 1984; Ledoux, Van Daele & Vanden
Berghe, MATSLISE, ACM TOMS 31, 2005) carries (g, g') exactly for the
constant Ubar and to first order in c1 P1 + .. + c4 P4, in closed form in
Ixaru's functions eta_k of x = (lambda^2 + Ubar) h^2:

    g(h)  = (eta_-1 + k1) g + h (eta_0 + k2) g'
    g'(h) = x (k2 - eta_0) g/h + (eta_-1 - k1) g'
    k1 = h^2 (c1 eta_1 - c3 x eta_3)/2,  k2 = h^2 (c2 eta_2 - c4 x eta_4)/2

with eta_-1 = cos w, eta_0 = sin(w)/w for x = w^2 > 0 (cosh and sinh
for x < 0) and eta_k = (eta_(k-2) - (2k-1) eta_(k-1)) / (-x); the terms
follow from the integral of P_k(u) e^(i w u) over [-1, 1], 2 i^k j_k(w).
One formula serves cells above and below the barrier, so no lambda
threshold is needed.  Where |x| < 16, i.e. at low frequency, where the
first-order error is largest, the terms second order in (c1, c2, c3) are
added from a Taylor series in x (``_second_order_table``), tapered off by
|x| = 25; below |x| = 25, where the recurrence for eta_3 and eta_4 loses
digits, x eta_3 and x eta_4 come from their Taylor series too
(``_near_series``).  So a cell's error is third order in (c1, c2, c3)
and second order in c4.  The error falls as lambda grows, so one mesh
serves every lambda, and lambda = 0 and omega h = 4 and 8 decide the cells.

Within cell i the Prüfer angle psi, tan(psi) = sigma g/g', uses the scale
sigma = sqrt(x)/h where the cell spans more than a radian of phase and 1/h
elsewhere.  A sweep carries the direction of (sigma g, g') from node to
node, rescaled at each to the next cell's scale; a one-lane call runs
that recursion on floats and writes both sweeps' nodes, the coarse
mesh's and then its halves', into one buffer.  One np.arctan2 call
(``_angles``) reads psi at both ends of every cell, the change is taken
on the branch within pi of the expected advance sqrt(x) (0 on the slow
cells), which keeps every multiple of pi, and np.add.accumulate sums each
sweep's changes in cell order.  The sweep enters at x_l with the angle of
(lambda sqrt(V) u, u'), 0 for u(a) = 0 at a regular end, turned with
V(x_l) and V'(x_l) into the direction of (g, g') on the same branch.  At
x_r the exit (g, g') is turned with V(x_r) and V'(x_r) into the angle of
(sigma u, u') on the scale sigma the propagator picks: the constant scale
s = lambda sqrt(max(c_lower, 1)) where x_r = b, the usual theta(b), and
lambda sqrt(V(x_r)) otherwise, the scale on which the angle shot back
from a singular right end arrives to be matched.  V and V' at both ends
are cached on the mesh.

The mesh depends on the potential and the decade of rtol only.  It is
built once, vectorized over cells, by bisecting every cell whose
propagator differs from the product of its two halves' by more than its
share of the decade's tolerance, in the max norm on a scale natural to
each reference frequency: lambda = 0 on the scale max(pi/D, sqrt|Ubar|),
and omega h = z for z in _Z_REF, 4 and 8, the others that decide cells,
on the scale omega.  At omega the tolerance is 10**decade * max(omega D,
pi) in all, so a cell's share grows with z.  The bisection runs in
batches that settle several levels each (``build_mesh``), each tested
once at the three frequencies: a cell far over its allowance at
lambda = 0, the frequency that fails most failing cells, sends its
halves' halves along with its halves.  A cell's arrays and verdict keep
their bits in any batch of an even number of cells, so the mesh is
bisection's level by level, array for array.  A build that fails, where
V does or a limit is reached, runs again without guesses, one level per
batch, and so raises what bisection raises.  The mesh is cached on the
Potential.  Every call sweeps the mesh and the mesh with each cell
halved: the fine sweep is the answer and |fine - coarse| its error
estimate.  A lane whose estimate exceeds rtol * max(theta, pi) is swept
again on a private copy with every cell halved (``_settle``), and fails
after _MAX_REFINE such tries.

The cell algebra does not depend on lambda, so ``propagate_lanes``, the
only entry point, takes many couplings, the lanes, at once.  A round of
lanes is one pass over the mesh in blocks of columns, each of at most
_BLOCK lane-cells: per block one _transfers batch, lambda^2 a column of
lanes broadcast against the block's cells, whose lambda-free factors the
mesh forms once (``_cell_factors``), and a sweep whose node recursion
runs on numpy rows across the lanes, with the one-lane recursion's bits.
One kernel, _transfer, serves lane rounds, one-lane calls and the mesh
build.  Its arithmetic is elementwise, and its series in x come from
one product of C-ordered arrays, powers @ operand, 2 rows to the most
that OpenBLAS's small-matrix kernel takes at a time (``_near_series``),
since BLAS sums a single row, a transposed operand, or more rows along
other paths; np.arctan2 gives an element the same bits in any array.  So
a cell's bits do not depend on the cells beside it, nor a lane's on the
lanes beside it or the blocks.  The lanes' sweep state carries from
block to block, so memory depends on the block, not on
lanes x cells.  A round of fewer than _MIN_LANES lanes, a single
coupling included, is swept lane by lane (``_theta_pair``).  The mesh
build's refinement test is batched the same way, over its reference
frequencies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .expr import EvalDomainError, eval_jet2
from .liouville_green import u_from_jet
from .potential import Potential
from .quadrature import _GL_W, _GL_X, _v_floor

__all__ = ["CellMesh", "build_mesh", "bulk_mesh", "propagate_lanes"]

_TWO_PI = 2.0 * math.pi

_INITIAL_CELLS = 16
# reference frequencies besides lambda = 0, in radians per cell.  omega h = 1
# and 2 decide no cell since c3 is at second order: over 96 builds (32
# potentials, among them x, sqrt(x), (1-x)/x, 2+sin(x), 1.2+sin(3x), exp(x)
# and 20 of criterion 3's draws, at decades -10..-12) each of the 2 267
# verdicts that failed omega h = 1 or 2 failed lambda = 0, 4 or 8 too, while
# lambda = 0 alone failed 166 verdicts, omega h = 4 alone 68 and 8 alone 75
_Z_REF = (4.0, 8.0)
_SHARE = 0.5  # fraction of the decade's tolerance the mesh's cells may use
_ROUNDING = 8 * 2.220446049250313e-16  # a gap this small is rounding, not truncation
_MAX_DEPTH = 40
# the halves of a cell whose lambda = 0 gap is over _SURE allowances may
# fail too, and gaps fall about _FALL-fold per halving: on x, sqrt(x),
# (1-x)/x, 2+sin(x), 1.2+sin(3x) on [0, 3] and exp(x) at decades -10..-12,
# bisection level by level, a half of a cell over 64 allowances failed in
# 90 % of 764 cases, 34 % of 32 in (48, 64], 21 % of 78 in (32, 48] and
# 3 % of 924 at or below 32, and a half's gap over allowance fell 25- to
# 660-fold from its parent's (10th to 90th percentile, median 196).
# Builds there, medians of 31 and 41 interleaved on a 2-vCPU Xeon guest:
# against _FALL = 48, 96 read 0.72-1.02x (0.72x on (1-x)/x at -12), 192
# 0.72-1.02x, 384 0.73-1.08x; against 96, 48 read 0.96-1.34x, 128
# 0.91-1.19x, 192 0.82-1.09x.  _SURE = 48, 64 or 128 read 0.81-1.14x
_SURE = 32.0
_FALL = 96.0
_MAX_CELLS = 50_000
_MAX_REFINE = 3
_BLOCK = 4096  # lane-cells per block of a round's sweep: bounds the sweep's arrays
# fewer lanes go one at a time: the least worst case over 48- to 420-cell
# sweeps.  A round over one-lane calls, medians of 81 interleaved on a 2-vCPU
# Xeon guest at rtol 1e-10 and 1e-11, breaks even at 4 lanes on 2+sin(x), x
# and sqrt(x) (16 to 58 cells), 5 to 6 on 1.2+sin(3x) on [0, 3] and (1-x)/x
# (67 to 140 cells); at 5 the worst case is 1.08x (a round of 5 on (1-x)/x),
# at 6 1.18x (5 lanes one at a time on 2+sin(x) or x at 1e-10)
_MIN_LANES = 5
_SLIVER = 2.0**-8  # share of the phase left to the slivers at each singular conjecture-class end
_SMALL_X = 0.05  # below this |x| the eta functions come from their series
_SECOND_ORDER_X = (16.0, 25.0)  # second-order terms in full below |x| = 16, tapered off by 25
# the monomials c1^2, c1 c2, c2^2, c1 c3, c2 c3, c3^2 as products c_i c_j
_LEFT, _RIGHT = np.array([0, 0, 1, 0, 1, 2]), np.array([0, 1, 1, 2, 2, 2])
# the columns of each monomial's series in _series_operand, monomial by monomial, each entry by entry
_SERIES_ORDER = np.array([16 + 3 * e + j for j in range(3) for e in range(4)] + list(range(12)))
# M N K up to which OpenBLAS's dgemm runs its small-matrix kernel on AVX-512
# machines, which gives the columns past the last multiple of 8 other bits
# than the blocked kernel: an (m, 16) @ (16, 28) product changes bits from
# m = 2 233 on, an (m, 16) @ (16, 12) one from 5 209, each where M N K
# first passes 10**6 (measured on a 2-vCPU Xeon guest).  _near_series runs
# at most _SMALL_GEMM // (16 * 28) rows per product
_SMALL_GEMM = 10**6
# cells per _transfer call in a batch of calls: rounds of 31 lanes on x
# (151 cells) and on (1-x)/x (388), and of 60 and 23 lanes on 2+sin(x) on
# [0, 3] (19), against 1024, medians of 41 interleaved on a 2-vCPU Xeon
# guest: 2048 0.91x, 0.92x, 0.95x and 0.99x; 4096 1.03x, 1.06x, 0.90x and
# 1.00x; 512 1.10-1.20x.  The bits do not depend on it
_CHUNK = 2048
# halves per matrix-vector product in _cells: OpenBLAS's dgemv takes 4 rows at a
# time and the 2 or 3 left over on another path with other bits, and from about
# 920 rows on splits the rows between threads, each share ending in its own left-over
_GEMV_ROWS = 512
# from this many near cells on, _powers forms the series' powers row by row: the
# two forms cost the same at about 150 cells (rows over accumulate 1.62x at 96,
# 1.02-1.03x at 144, 0.99-1.00x at 152, 0.77x at 224, medians of 2 001
# interleaved on a 2-vCPU Xeon guest)
_ROW_POWERS = 144


def _legendre(t: np.ndarray, m: int) -> list[np.ndarray]:
    """P_0 .. P_m at t by the three-term recurrence."""
    ps = [np.ones_like(t), t]
    for k in range(1, m):
        ps.append(((2 * k + 1) * t * ps[k] - k * ps[k - 1]) / (k + 1))
    return ps


def _integration_matrix() -> np.ndarray:
    """S with (S f)_k = integral from -1 to t_k of f's interpolant at the Gauss nodes t."""
    n = len(_GL_X)
    p = _legendre(_GL_X, n)
    s = np.outer(_GL_X + 1.0, 0.5 * _GL_W)
    for m in range(1, n):
        # the interpolant's P_m coefficient is (2m+1)/2 sum_j w_j f_j P_m(t_j),
        # and P_m integrates to (P_(m+1) - P_(m-1))/(2m+1)
        s += np.outer(p[m + 1] - p[m - 1], 0.5 * _GL_W * p[m])
    return s


_S = _integration_matrix()


def _series(n: int, terms: int = 6) -> list[float]:
    """Taylor coefficients of eta_n in y = -x/2: 1/(m! (2n+2m+1)!!)."""
    return [1.0 / (math.factorial(m) * math.prod(range(1, 2 * n + 2 * m + 2, 2))) for m in range(terms)]


_ETA_SERIES = np.array([_series(n) for n in range(3)])[:, :, None]  # (eta, power, 1)
_ETA_HORNER = tuple(_ETA_SERIES.transpose(1, 0, 2)[-2::-1])  # the columns below the top one, top down


@functools.cache  # built on first use, not at import
def _second_order_table(terms: int = 16) -> np.ndarray:
    """Taylor coefficients in x of the unit cell's terms second order in (c1, c2, c3), as an array (terms, 4, 6).

    g'' = -(x + c1 P1(2t-1) + c2 P2(2t-1) + c3 P3(2t-1)) g on t in [0, 1]
    is solved as a power series in t whose coefficients are polynomials in
    x and the c's, cut at x**(terms-1) and second order in c; each such
    coefficient is a polynomial in t, so the sums at t = 1 are exact.
    Entry [k, e, j] is the x**k coefficient of propagator entry e (11, 12,
    21, 22: g(1) and g'(1) from g(0) = 1 and from g'(0) = 1) times
    monomial j: c1^2, c1 c2, c2^2, c1 c3, c2 c3, c3^2.
    """
    # monomials 1, c1, c2, c3, then the six above: times c1, c2 or c3 the
    # first four become the entries of ``times``
    du = ((-1.0, 1.0, -1.0), (2.0, -6.0, 12.0), (0.0, 6.0, -30.0), (0.0, 0.0, 20.0))  # t^j coefficients of P1 .. P3 in t
    times = ([1, 4, 5, 7], [2, 5, 6, 8], [3, 7, 8, 9])
    n_max = 2 * terms + 12
    a = np.zeros((n_max + 2, 2, terms, 10))  # t^n coefficient, start, x power, monomial
    a[0, 0, 0, 0] = a[1, 1, 0, 0] = 1.0
    for n in range(n_max):
        rhs = np.zeros((2, terms, 10))
        rhs[:, 1:] = a[n, :, :-1]
        for j, ps in enumerate(du[: n + 1]):
            for p, to in zip(ps, times):
                rhs[..., to] += p * a[n - j, ..., :4]
        a[n + 2] = -rhs / ((n + 2) * (n + 1))
    g, dg = a.sum(axis=0), np.tensordot(np.arange(n_max + 2.0), a, axes=1)
    return np.stack([g[0], g[1], dg[0], dg[1]], axis=1)[..., 4:]


@functools.cache
def _series_operand() -> np.ndarray:
    """The C-ordered right-hand operand (16, 28) of _near_series's product.

    Columns 0 .. 11 hold _second_order_table's c3 monomials, monomial by
    monomial and each entry by entry; 12 and 13 the x**k coefficients of
    x eta_3 and x eta_4, (-1/2)**(k-1) / ((k-1)! (2n+2k-1)!!) for n = 3, 4
    and k >= 1; 14 and 15 zeros; 16 .. 27 the (c1, c2) monomials, entry by
    entry.  BLAS forms columns 16 .. 27 of a product with the bits it
    gives a product with those 12 columns alone, the (c1, c2) kernel's: a
    column's bits depend on whether it falls in a block of 8 columns or in
    the last 4, and 16 .. 23 and 24 .. 27 fall as 0 .. 7 and 8 .. 11 do.
    """
    table = _second_order_table()
    terms = len(table)
    etas = [[0.0] + [c * (-0.5) ** k for k, c in enumerate(_series(n, terms - 1))] for n in (3, 4)]
    parts = [table[..., 3:].transpose(0, 2, 1).reshape(terms, 12), np.array(etas).T, np.zeros((terms, 2))]
    return np.ascontiguousarray(np.concatenate([*parts, table[..., :3].reshape(terms, 12)], axis=1))


@dataclass(frozen=True, eq=False)
class CellMesh:
    """A coarse mesh of n cells and its halves, for one potential and one rtol decade.

    ``h``, ``ubar`` and ``c1`` .. ``c4`` hold the n coarse cells and then
    the 2n halves in order; ``nodes`` are the coarse cells' ends in x, from
    x_l to x_r.
    """

    nodes: np.ndarray
    h: np.ndarray
    ubar: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    c4: np.ndarray
    sqrt_vl: float  # sqrt(V(x_l)); 1 at a regular end, where the entry u = 0 needs no V
    beta_l: float  # V'(x_l) / (4 V(x_l)); 0 at a regular end
    sqrt_vr: float  # sqrt(V(x_r))
    beta_r: float  # V'(x_r) / (4 V(x_r))
    scale_r: float  # the exit scale over lambda: sqrt(max(c_lower, 1)) where x_r = b, else sqrt(V(x_r))
    u_integral: float  # sum of h * Ubar over the coarse cells: the integral of U over the bulk in xi

    @property
    def cells(self) -> int:
        return len(self.nodes) - 1

    @functools.cached_property
    def arrays(self) -> tuple:
        """The cells' arguments in _transfer's order: h, ubar and their lambda-free factors (``_cell_factors``)."""
        return self.h, self.ubar, _cell_factors(self.h, self.c1, self.c2, self.c3, self.c4)

    @property
    def length(self) -> float:
        """D_bulk, the xi-length of [x_l, x_r]: the coarse cells' lengths summed."""
        return float(self.h[: self.cells].sum())


def _decade(rtol: float) -> int:
    """The decade of rtol, floor(log10(rtol)), robust to rtol = 10**k in binary."""
    return math.floor(math.log10(rtol) + 1e-9)


def _moments(w, u, xi, h):
    """Ubar, c1 .. c4 of U over cells of xi-length h from quadrature weights w in xi."""
    t = 2.0 * xi / h[:, None] - 1.0
    wu = w * u
    p2 = 1.5 * t * t - 0.5
    p3 = (5.0 * t * p2 - 2.0 * t) / 3.0
    p4 = (7.0 * t * p3 - 3.0 * p2) / 4.0
    return (
        wu.sum(axis=1) / h,
        3.0 * (wu * t).sum(axis=1) / h,
        5.0 * (wu * p2).sum(axis=1) / h,
        7.0 * (wu * p3).sum(axis=1) / h,
        9.0 * (wu * p4).sum(axis=1) / h,
    )


def bulk_interval(p: Potential) -> tuple[float, float]:
    """[x_l, x_r], the interval the propagator covers: [a, b] less a sliver at each singular end.

    An end with declared exponent 0 (every theorem-class end) is kept.  At
    a singular one, where U is unbounded, the sliver is (b - a) *
    _SLIVER**(2/(2 + gamma)): the share _SLIVER of int sqrt(V) if V were
    c |x - end|**gamma on the whole interval, so a sliver where V blows up
    is thin and one where V vanishes is wide.  It is clamped to between
    1e-9 and 1/4 of b - a.
    """

    def cut(gamma):
        if gamma == 0.0:
            return 0.0
        return (p.b - p.a) * min(max(_SLIVER ** (2.0 / (2.0 + gamma)), 1e-9), 0.25)

    return p.a + cut(p.gamma_a), p.b - cut(p.gamma_b)


def _cells(p: Potential, lo: np.ndarray, hi: np.ndarray):
    """(h, Ubar, c1 .. c4) of the cells [lo, hi] and, interleaved, of their halves.

    V, V' and V'' come from one vectorized jet call at the 10 Gauss nodes
    of every half; xi at the nodes from the Gauss integration matrix.  A
    cell's numbers do not depend on the other cells of a call of an even
    number of cells: the halves' lengths are summed in pieces of
    _GEMV_ROWS rows, each a multiple of 4.
    """
    n = len(lo)
    mid = 0.5 * (lo + hi)
    a = np.stack([lo, mid], axis=1).ravel()  # halves, left then right per cell
    b = np.stack([mid, hi], axis=1).ravel()
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X
    v, d1, d2 = p.jet2_fn(x)
    floor = _v_floor(p)
    bad = ~(v > floor)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise EvalDomainError(f"potential fell to {float(v.flat[i])!r} (floor {floor!r})", p.source, float(x.flat[i]))
    sq = np.sqrt(v)
    u = u_from_jet(v, d1, d2)
    dxi = half[:, None] * sq  # d xi / d t at the nodes
    xi = dxi @ _S.T
    hh = np.empty(len(dxi))
    for i in range(0, len(dxi), _GEMV_ROWS):  # each piece on one thread, in blocks of 4 rows
        np.matmul(dxi[i : i + _GEMV_ROWS], _GL_W, out=hh[i : i + _GEMV_ROWS])
    w = dxi * _GL_W
    halves = (hh, *_moments(w, u, xi, hh))
    # a whole cell integrates over both halves' nodes, the right ones shifted by the left length
    hw = hh[0::2] + hh[1::2]
    xiw = np.concatenate([xi[0::2], xi[1::2] + hh[0::2, None]], axis=1)
    whole = (hw, *_moments(w.reshape(n, -1), u.reshape(n, -1), xiw, hw))
    return whole, halves


def _eta_series(x: np.ndarray) -> np.ndarray:
    """eta_0 .. eta_2 at small |x| from their Taylor series, by Horner's rule for the three at once."""
    y = -0.5 * x
    acc = np.empty((len(_ETA_SERIES), len(y)))
    acc[:] = _ETA_SERIES[:, -1]
    for c in _ETA_HORNER:
        acc *= y
        acc += c
    return acc


def _etas(x: np.ndarray, ax: np.ndarray, low: float, top: float):
    """Ixaru's eta_-1 .. eta_2 at x = (lambda^2 + Ubar) h^2 of either sign, and x eta_3, x eta_4 once a cell is far.

    ax = |x|, low = min x and top = max |x| come from the caller, which needs them too.  x eta_3 and
    x eta_4 come from the recurrence, None while every cell is near; a near cell's series replaces them.
    """
    r = np.sqrt(ax)
    pos = None if low > 0.0 else x > 0.0
    if top < _SMALL_X:  # all from the series, and no cosh can overflow
        em1 = np.cos(r) if pos is None else np.where(pos, np.cos(r), np.cosh(r))
        return em1, *_eta_series(x.reshape(-1)).reshape(-1, *x.shape), None, None
    xe3 = xe4 = None
    with np.errstate(all="ignore"):  # x = 0, the unused cosh branch, and a near cell's x eta_3 and x eta_4
        em1 = np.cos(r) if pos is None else np.where(pos, np.cos(r), np.cosh(r))
        e0 = (np.sin(r) if pos is None else np.where(pos, np.sin(r), np.sinh(r))) / r
        e1 = (e0 - em1) / x
        e2 = (3.0 * e1 - e0) / x
        if top >= _SECOND_ORDER_X[1]:  # some cell is far
            xe3 = 5.0 * e2 - e1
            xe4 = 7.0 * xe3 / x - e2
    if not low >= _SMALL_X:  # else no |x| is small
        small = (ax < _SMALL_X).ravel().nonzero()[0]
        if small.size:  # x and the new e's are C-ordered: flat indices reach their elements
            for e, series in zip((e0, e1, e2), _eta_series(x.ravel()[small])):
                e.ravel()[small] = series
    return em1, e0, e1, e2, xe3, xe4


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """x**0 .. x**(n-1) in the columns of a C-ordered (max(len(x), 2), n) array, a lone x in two rows.

    Power k is power k-1 times x, the products np.vander forms: in one
    accumulate call for a short x, where the row loop's 14 calls cost more
    (one-lane calls on short meshes), and row by row, then transposed, for
    a long one, where the accumulate call's short inner loops are slow
    (lane rounds).  Both give the same bits.
    """
    m = max(len(x), 2)
    if m < _ROW_POWERS:
        powers = np.empty((m, n))
        powers[:, 0] = 1.0
        powers[:, 1:] = x[:, None]
        np.multiply.accumulate(powers[:, 1:], axis=1, out=powers[:, 1:])
        return powers
    powers = np.empty((n, m))
    powers[0] = 1.0
    powers[1] = x
    for before, row in zip(powers[1:], powers[2:]):
        np.multiply(before, x, out=row)
    return np.ascontiguousarray(powers.T)


def _near_series(x: np.ndarray, mono: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The series in x of near lane-cells x: the second-order terms (4, *x.shape) and x eta_3, x eta_4 (2, *x.shape).

    ``mono`` holds the second order's six monomials on its first axis
    (c1^2, c1 c2, c2^2, c1 c3, c2 c3, c3^2, times h^4), broadcast against
    x; each entry's six products with the unit cell's series
    (``_second_order_table``) are summed in that order, one after another.
    x eta_3 and x eta_4 are within an ulp of their scale on |x| < 25,
    where the recurrence loses up to 10 digits.  Both come from the
    product powers @ _series_operand() of C-ordered arrays
    (m, 16) @ (16, 28), from 2 rows up to the most the small-matrix kernel
    takes (_SMALL_GEMM) at a time (``_powers``): BLAS sums a single row or
    a transposed operand along other paths, and more rows in another
    kernel, so an element keeps its bits in any number of rows.
    """
    m = x.size
    powers = _powers(x.reshape(-1), 16)
    operand = _series_operand()
    rows = _SMALL_GEMM // operand.size
    out = np.empty((len(powers), operand.shape[1]))
    for i in range(0, len(powers), rows):
        end = min(i + rows, len(powers))
        start = min(i, end - 2)  # a last row alone goes with the one before it
        np.matmul(powers[start:end], operand, out=out[start:end])
    del powers  # freed before the products are formed: a round's peak memory is lower
    products = out[:m].T[_SERIES_ORDER].reshape(6, 4, *x.shape)
    products *= mono[:, None]
    return np.add.reduce(products, axis=0), out[:m, 12:14].T.reshape(2, *x.shape)


def _cell_factors(h, c1, c2, c3, c4):
    """The lambda-free factors _transfer takes for cells of length h with moments c1 .. c4.

    They are h^2, the first-order factors 0.5 c h^2 of c1 .. c4 as an array
    (4, cells) and the second order's monomials of c1 h^2, c2 h^2 and
    c3 h^2 (_LEFT, _RIGHT) as an array (6, cells).  A mesh forms them once
    (``CellMesh.arrays``), a batch of calls once for all its runs.
    """
    h2 = h * h
    ch2 = np.array((c1, c2, c3, c4)) * h2
    return h2, 0.5 * ch2, ch2.take(_LEFT, axis=0) * ch2.take(_RIGHT, axis=0)


def _transfer(lam2, h, ubar, factors, out=None):
    """The cells' (g, g') propagators t11, t12, t21, t22 at lambda^2 = lam2, and x, as an array (5, ...).

    h and ubar hold one value per cell, and ``factors`` the cells'
    lambda-free factors (``_cell_factors``); lam2 broadcasts against them:
    one value, one per cell, or (rows, 1) or (rows, cells) for rows of
    lanes.  The result goes to ``out`` if given.  A cell's bits do not
    depend on the other cells or rows of the call: the arithmetic is
    elementwise, numpy sums the leading axis of the second-order products
    one row after another, and the near cells' series come from products
    that keep an element's bits in any number of rows (``_near_series``).
    """
    s = lam2 + ubar
    if out is None:
        out = np.empty((5, *s.shape))
    x = out[4]
    h2, half, monomials = factors
    np.multiply(s, h2, out=x)
    full, gone = _SECOND_ORDER_X
    low = x.min()
    ax = x if low > 0.0 else np.abs(x)
    top = low if low >= gone else ax.max()  # max |x|, needed only where a cell is near
    em1, e0, e1, e2, xe3, xe4 = _etas(x, ax, low, top)
    # near: the indices of the lane-cells with |x| < gone, () for all of
    # them, None for none; they take x eta_3 and x eta_4 from the series,
    # the others from the recurrence, within an ulp of their scale there
    near = None
    if top < gone:  # the per-cell factors broadcast over the rows of lanes
        near, xn, axn, hn, mono = (), x, ax, h, monomials.reshape(6, *(1,) * (x.ndim - 1), -1)
    elif low < gone and (index := (ax < gone).nonzero())[-1].size:
        near, cell = index, index[-1]
        xn, axn, hn, mono = x[near], ax[near], h[cell], monomials.take(cell, axis=1)
        top = axn.max()
    if near is not None:
        terms, (xe3n, xe4n) = _near_series(xn, mono)
        if near:
            xe3[near], xe4[near] = xe3n, xe4n
        else:
            xe3, xe4 = xe3n, xe4n
    # the odd moments in the diagonal, the even ones in the off-diagonal
    # entries: k1 and k2, from the factors 0.5 c h^2 per cell times the etas
    k1 = half[0] * e1
    k1 -= half[2] * xe3
    k2 = half[1] * e2
    k2 -= half[3] * xe4
    np.add(em1, k1, out=out[0])
    np.multiply(h, e0 + k2, out=out[1])
    np.divide(x * (k2 - e0), h, out=out[2])
    np.subtract(em1, k1, out=out[3])
    if near is None:
        return out
    # second order in (c1, c2, c3) from the unit cell's series
    # (``_near_series``), scaled by h^4 (c h^2 squared) and by h, 1/h for
    # the off-diagonal entries; a near |x| is below gone, so the weight's
    # argument needs no clip at 1
    if top > full:
        weight = np.cos(0.5 * math.pi * np.maximum((axn - full) / (gone - full), 0.0)) ** 2
        terms *= np.array((weight, weight * hn, weight / hn, weight))
    else:  # the weight 1 leaves the diagonal entries as they are
        terms[1] *= hn
        terms[2] *= 1.0 / hn
    out[(slice(4), *near)] += terms
    return out


def _transfers(lam2, h, ubar, factors) -> np.ndarray:
    """_transfer for several rows on the same cells, as an array (5, rows, cells).

    Row k is at lambda^2 = lam2[k], shape (rows, 1) or (rows, cells), and
    the cells' arrays and factors hold one value per cell on their last axis.  The rows go to _transfer in the fewest
    runs of whole rows, as even as whole rows allow, so that each holds
    less than _CHUNK cells plus one row, which bounds the series'
    temporaries; a row longer than _CHUNK is a run of its own.  Each run
    is written straight into the result.  A cell's bits do not depend on
    its run (``_transfer``).
    """
    rows, n = len(lam2), len(h)
    out = np.empty((5, rows, n))
    runs = -(-rows * n // _CHUNK)  # the fewest runs of _CHUNK cells
    step = -(-rows // runs)  # rows per run, as even as whole rows allow
    for i in range(0, rows, step):
        _transfer(lam2[i : i + step], h, ubar, factors, out=out[:, i : i + step])
    return out


def _mismatches(whole, halves, lam2s, sigs):
    """Max-norm gaps, each at lam2s[k] on the scale sigs[k], between every cell's propagator and its halves' product.

    One _transfers batch over all the frequencies takes the whole cells
    and both halves together; the 2 x 2 products are formed for all the
    entries at once, each as r_i1 l_1j + r_i2 l_2j.
    """
    m = len(whole[0])
    cells = [np.concatenate([w, q[0::2], q[1::2]]) for w, q in zip(whole, halves)]
    lam2, sig = np.empty((len(lam2s), 3, m)), np.empty((len(sigs), m))
    for rows, values in ((lam2, lam2s), (sig, sigs)):
        for row, value in zip(rows, values):
            row[...] = value  # one value, or one per cell
    h, ubar, *c = cells
    parts = _transfers(lam2.reshape(len(lam2s), -1), h, ubar, _cell_factors(h, *c))[:4].reshape(2, 2, -1, 3, m)
    t, left, right = parts[..., 0, :], parts[..., 1, :], parts[..., 2, :]  # (row, column, frequency, cell)
    gaps = np.abs(right[:, :1] * left[0] + right[:, 1:] * left[1] - t)
    gaps[0, 1] *= sig
    gaps[1, 0] /= sig
    return gaps.reshape(4, -1, m).max(axis=0)


def _within(whole, halves, scale, floor, length):
    """Whether each cell passes at lambda = 0 and at omega h = z for each z in _Z_REF, and its gap over allowance at lambda = 0.

    lambda = 0 is on the scale of the first jump, pi/D, or of sqrt(|Ubar|);
    omega h = z on the scale omega; one _mismatches call takes them all.  A
    gap passes within 10**decade times the cell's share, or at rounding level.
    """
    h, ubar = whole[0], whole[1]
    allowed = np.maximum(floor * h, _ROUNDING)
    lam2s = [0.0] + [np.maximum((z / h) ** 2 - ubar, 0.0) for z in _Z_REF]
    sigs = [np.maximum(math.pi / length, np.sqrt(np.abs(ubar)))] + [z / h for z in _Z_REF]
    limits = np.array([allowed] + [np.maximum(scale * z, allowed) for z in _Z_REF])
    gaps = _mismatches(whole, halves, lam2s, sigs)
    return (gaps <= limits).all(axis=0), gaps[0] / allowed


def _assemble(p: Potential, nodes: np.ndarray, whole=None, halves=None) -> CellMesh:
    if whole is None:
        whole, halves = _cells(p, nodes[:-1], nodes[1:])
    x_l, x_r = float(nodes[0]), float(nodes[-1])
    vl, dvl, _ = eval_jet2(p.ast, x_l) if x_l > p.a else (1.0, 0.0, 0.0)  # u(a) = 0 needs no V(a)
    vr, dvr, _ = eval_jet2(p.ast, x_r)
    scale_r = math.sqrt(max(p.c_lower or 0.0, 1.0)) if x_r == p.b else math.sqrt(vr)
    arrays = [np.concatenate([w, q]) for w, q in zip(whole, halves)]
    coarse = slice(0, len(nodes) - 1)
    u_integral = float(arrays[0][coarse] @ arrays[1][coarse])
    ends = (math.sqrt(vl), 0.25 * dvl / vl, math.sqrt(vr), 0.25 * dvr / vr, scale_r)
    return CellMesh(nodes, *arrays, *ends, u_integral)


def _children(lo, hi, depth, spec):
    """The halves of cells, left ones then right ones as bisection orders them, one depth down and with ``spec``."""
    mid = 0.5 * (lo + hi)
    pairs = ([lo, mid], [mid, hi], [depth + 1] * 2, [spec] * 2)
    return [np.concatenate(pair) for pair in pairs]


def _reached(levels, fail):
    """Which cells of a batch bisection would test: its first level, then each child of a failing one.

    ``levels`` holds the batch's levels of cells, each cell's levels of
    descendants in the batch last; ``fail`` has a value per cell, level
    after level.
    """
    real = np.ones(len(fail), dtype=bool)
    start = 0
    for parent, child in zip(levels, levels[1:]):
        end = start + len(parent[0])
        reached = (real[start:end] & fail[start:end])[parent[3] > 0]
        real[end : end + len(child[0])] = np.concatenate([reached, reached])
        start = end
    return real


def _bisect(p: Potential, decade: int, x_l: float, x_r: float, guesses: bool) -> CellMesh:
    """build_mesh's batches, with guessed levels or, without them, one level per batch in bisection's order.

    Raises EvalDomainError where V fails, and ArithmeticError after the
    halves of a cell at depth _MAX_DEPTH - 1 or past _MAX_CELLS cells.
    """
    n = _INITIAL_CELLS
    edges = np.linspace(x_l, x_r, n + 1)
    # the untested cells that bisection would test: lo, hi, depth and the
    # levels of their descendants to test with them
    pending = [edges[:-1], edges[1:], np.zeros(n, dtype=int), np.zeros(n, dtype=int)]
    # at a frequency where theta(b) ~ omega D the cells' mismatches may add
    # up to _SHARE * 10**decade * max(omega D, pi); cell i's share is
    # 10**decade * max(z, pi h_i/D) at z = omega h_i, D from the first cells
    scale = _SHARE * 10.0**decade
    length = floor = None
    failures, done = 0, []
    while True:
        levels = [pending]
        while (more := levels[-1][3] > 0).any():
            lo, hi, depth, spec = (q[more] for q in levels[-1])
            levels.append(_children(lo, hi, depth, spec - 1))
        lo, hi, depth, spec = pending if len(levels) == 1 else (np.concatenate(q) for q in zip(*levels))
        whole, halves = _cells(p, lo, hi)
        if depth.max() == _MAX_DEPTH:  # bisection evaluates the level below its last before it gives up
            raise ArithmeticError(f"cell mesh did not converge in {_MAX_DEPTH} bisections near x={float(lo[0])!r}")
        if length is None:
            length = whole[0].sum()
            floor = scale * math.pi / length
        ok, ratio = _within(whole, halves, scale, floor, length)
        real = _reached(levels, ~ok)
        fail = real & ~ok
        done.append((lo, whole, halves, real & ok))
        failures += np.count_nonzero(fail)
        if n + failures > _MAX_CELLS:
            raise ArithmeticError(f"cell mesh needs more than {_MAX_CELLS} cells")
        split = fail & (spec == 0)  # failing cells whose halves are untested
        if not split.any():
            break
        guess = np.zeros(np.count_nonzero(split), dtype=int)
        room = _MAX_DEPTH - 2 - depth[split]  # levels left to guess above the depth limit
        if guesses and (sure := (ratio[split] > _SURE) & (room > 0)).any():
            # the halves of a cell over _SURE allowances fail too: their halves
            # go with them, and a level more for each further _FALL-fold
            gain = np.floor(np.log(ratio[split][sure] / _SURE) / math.log(_FALL))
            guess[sure] = np.minimum(np.fmax(gain, 1.0), room[sure])
            # a cell that guesses g levels adds 2**(g + 2) - 4 cells: none
            # where they would pass the cells left below _MAX_CELLS
            if (np.left_shift(4, guess) - 4).sum() > _MAX_CELLS - n - failures:
                guess[:] = 0
        pending = _children(lo[split], hi[split], depth[split], guess)
    lo_all = np.concatenate([part[0] for part in done])
    leaves = np.flatnonzero(np.concatenate([part[3] for part in done]))
    order = leaves[np.argsort(lo_all[leaves], kind="stable")]  # the leaves, in x
    nodes = np.append(lo_all[order], x_r)
    whole = [np.concatenate([part[1][k] for part in done])[order] for k in range(len(whole))]
    pairs = np.stack([2 * order, 2 * order + 1], axis=1).ravel()
    halves = [np.concatenate([part[2][k] for part in done])[pairs] for k in range(len(halves))]
    return _assemble(p, nodes, whole, halves)


def build_mesh(p: Potential, decade: int, x_l: float, x_r: float) -> CellMesh:
    """The cell mesh of [x_l, x_r] for ``decade``, by vectorized bisection from equal cells in x.

    A cell passes where its propagator and its halves' product agree
    within its share of the decade's tolerance at lambda = 0 and at every
    omega h in _Z_REF (``_within``); a cell that fails is halved.  One
    batch, one _cells call and one test of all its cells, settles several
    levels: a failing cell whose lambda = 0 gap is over _SURE allowances
    sends its halves to the next batch with their halves, and a level more
    for each further _FALL-fold, as long as a batch's guessed cells fit in
    the cells left below _MAX_CELLS.  The batch's tree is walked level by
    level (``_reached``) and the guesses under a passing cell are dropped.  A
    cell's arrays and verdict have the same bits in any batch of an even
    number of cells, so the mesh is that of bisection level by level,
    array for array.  The cells bisection tests are among those the
    batches evaluate, and the limits count only them, so a build that
    guesses fails where bisection fails, or where V fails at a guessed
    cell.  It then runs again without guesses, which is bisection and
    raises what bisection raises, message and x included.
    """
    try:
        return _bisect(p, decade, x_l, x_r, guesses=True)
    except ArithmeticError:  # EvalDomainError included
        return _bisect(p, decade, x_l, x_r, guesses=False)


def _angles(g, dg, adv, starts):
    """Each node's angle and each cell's change of angle, for sweeps whose node directions are known.

    g and dg hold each cell's far-end direction (2, cells, ...), row 0 before the rescale to the
    next cell's scale and row 1 after it; adv is the expected advance.  A start (k, theta, a0)
    begins a sweep at cell k, entered at the angle theta whose direction's atan2 is a0; its first
    change includes theta, so np.add.accumulate of a sweep's changes gives its angle.  One
    np.arctan2 call reads every node.
    """
    a1, a = np.arctan2(g, dg)
    d = np.empty_like(a1)
    np.subtract(a1[1:], a[:-1], out=d[1:])
    for k, _, a0 in starts:
        d[k] = a1[k] - a0
    d -= adv
    steps = adv + d - _TWO_PI * np.rint(d / _TWO_PI) + a - a1
    for k, theta, _ in starts:
        steps[k] += theta
    return a, steps


def _sweep_lanes(m11, m12, m21, m22, adv, ratio, theta, w0, w1, a0):
    """A run of cells swept for many lanes at once: the Prüfer angle and the final (g, g') direction.

    The m's are the cells' propagators in their own scale, ``adv`` the
    expected advance and ``ratio`` the rescale at each cell's far end, a
    row per lane; theta, (w0, w1) and a0 are the entry angle, its direction
    on the first cell's scale and its atan2, one per lane.  The recursion
    runs on numpy rows across the lanes.  Returns the exit (theta, w0, w1,
    a0), so that a sweep may go on.
    """
    lanes, cells = m11.shape
    # per cell [[t11, t21], [t12, t22]] and [ratio, 1]: y = mat[0] w0 + mat[1] w1, w' = y [ratio, 1] / n
    mat = np.empty((cells, 2, 2, lanes))
    mat[:, 0, 0], mat[:, 0, 1], mat[:, 1, 0], mat[:, 1, 1] = m11.T, m21.T, m12.T, m22.T
    scale = np.ones((cells, 2, lanes))
    scale[:, 0] = ratio.T
    # nodes[i + 1] holds cell i's y and w; nodes[0, 1] the entry direction
    nodes = np.empty((cells + 1, 2, 2, lanes))
    nodes[0, 1] = w0, w1
    w = nodes[:, 1]
    # w[i] read as [[w0, w0], [w1, w1]], to meet mat[i] without broadcasting
    pairs = np.lib.stride_tricks.as_strided(w, (cells + 1, 2, 2, lanes), (w.strides[0], w.strides[1], 0, w.strides[2]), writeable=False)
    # the loop's buffers: y's two terms, |y| and the norm |y0| + |y1|
    terms, size, norm = np.empty((2, 2, lanes)), np.empty((2, lanes)), np.empty(lanes)
    (t0, t1), (s0, s1) = terms, size
    with np.errstate(all="ignore"):  # a lane that fails ends non-finite
        for mi, wi, si, yi, wo in zip(mat, pairs, scale, nodes[1:, 0], nodes[1:, 1]):
            np.multiply(mi, wi, out=terms)
            np.add(t0, t1, out=yi)
            np.abs(yi, out=size)
            np.multiply(yi, si, out=wo)
            np.add(s0, s1, out=norm)
            np.divide(wo, norm, out=wo)
        a, steps = _angles(*nodes[1:].transpose(2, 1, 0, 3), adv.T, ((0, theta, a0),))
        theta = np.add.accumulate(steps)[-1]
    return theta, w[-1, 0], w[-1, 1], a[-1]


def _sigma(x, h):
    """The Prüfer scale of cells of length h at x = (lambda^2 + Ubar) h^2."""
    return np.sqrt(np.maximum(x, 1.0)) / h


def _sigma_at(mesh: CellMesh, lam2, i: int):
    """Cell i's sigma at each lambda^2 in lam2, with the bits a sweep reads from _transfer's x."""
    h = mesh.h[i]
    return _sigma((lam2 + mesh.ubar[i]) * (h * h), h)


def _entries(mesh: CellMesh, lam: float, theta_l: float, scales) -> list[tuple[float, float, float, float]]:
    """The entry angle and direction (theta, w0, w1) on each first cell's scale s in ``scales``, and atan2(w0, w1).

    theta_l is the angle at x_l of (lam sqrt(V) u, u'); its direction is
    that of (g, dg/dxi) ~ (sqrt(V) u, u' + V'/(4V) u), kept on theta_l's
    branch.  theta_l = 0, u(a) = 0 at a regular end, enters as (0, 1).
    """
    atan2 = math.atan2
    k = round(theta_l / math.pi)
    phi = theta_l - k * math.pi
    sin = math.sin(phi)
    y0 = mesh.sqrt_vl * sin
    y1 = lam * mesh.sqrt_vl * math.cos(phi) + mesh.beta_l * sin
    g, dg = (-y0, -y1) if k % 2 else (y0, y1)
    base, turn = k * math.pi + atan2(y0, y1), atan2(g, dg)
    out = []
    for s in scales:
        w0 = s * g
        norm = abs(w0) + abs(dg)
        w0, w1 = w0 / norm, dg / norm
        a0 = atan2(w0, w1)
        out.append((base + a0 - turn, w0, w1, a0))
    return out


def _exit(mesh: CellMesh, lam: float, theta: float, g: float, dg: float, a: float) -> float:
    """The angle at x_r on the scale lam * mesh.scale_r, from a sweep's end: its angle, (g, g') direction and last atan2."""
    return theta + math.atan2(lam * mesh.scale_r * g, mesh.sqrt_vr * dg - mesh.beta_r * g) - a


def _theta_pair(mesh: CellMesh, lam: float, theta_l: float) -> tuple[float, float]:
    """The exit angles on the coarse mesh and on its halves: the node loop on floats, then one buffer of both sweeps'
    nodes, whose w rows repeat the loop's operations, read by one _angles call; each sweep is summed on its own.
    """
    n = mesh.cells
    t = _transfer(lam * lam, *mesh.arrays)
    x = t[4]
    sig = _sigma(x, mesh.h)
    adv = sig * mesh.h  # the expected advance, 0 on the slow cells
    adv[x < 1.0] = 0.0
    t[1] *= sig
    t[2] /= sig
    np.divide(sig[1:], sig[:-1], out=x[:-1])  # each cell rescales to the next one's sigma, a sweep's last to 1
    x[n - 1], x[-1] = 1.0 / sig[n - 1], 1.0 / sig[-1]
    cols = t.tolist()
    starts = _entries(mesh, lam, theta_l, (float(sig[0]), float(sig[n])))
    g, dg = [], []  # each cell's far-end y
    for part, (_, w0, w1, _) in zip((slice(0, n), slice(n, 3 * n)), starts):
        for t11, t12, t21, t22, r in zip(*(c[part] for c in cols)):
            y0 = t11 * w0 + t12 * w1
            y1 = t21 * w0 + t22 * w1
            size = abs(y0) + abs(y1)
            w0 = y0 * r / size
            w1 = y1 / size
            g.append(y0)
            dg.append(y1)
    nodes = np.empty((2, 2, 3 * n))  # (g, g'), (y, w), cells
    nodes[:, 0] = g, dg
    with np.errstate(all="ignore"):  # a call that fails ends non-finite
        size = np.add.reduce(np.abs(nodes[:, 0]))
        np.divide(nodes[0, 0] * x, size, out=nodes[0, 1])  # x's row now holds the rescales
        np.divide(nodes[1, 0], size, out=nodes[1, 1])
        a, steps = _angles(*nodes, adv, [(k, theta, a0) for k, (theta, _, _, a0) in zip((0, n), starts)])
        thetas = float(np.add.accumulate(steps[:n])[-1]), float(np.add.accumulate(steps[n:])[-1])
    # each sweep's last node: cells n - 1 and 3n - 1
    (g, dg), ends = nodes[:, 1, n - 1 :: 2 * n].tolist(), a[n - 1 :: 2 * n].tolist()
    return tuple(map(_exit, (mesh, mesh), (lam, lam), thetas, g, dg, ends))


def _sweep_block(mesh: CellMesh, lam2, runs, k0: int, k1: int, state):
    """The lanes' sweep state carried over columns k0 .. k1 - 1 of the runs of cells in ``runs``.

    Each run is (first cell, end of its sweep) in the mesh's arrays, and a
    lane has a row per run, side by side in ``state``; lam2 holds a row
    per lane.  One _transfers batch covers the block; a cell rescales to
    the next one's sigma (the expected advance is 0 on the slow cells),
    the last column to the sigma of each run's next cell.
    """
    lanes, k, b = len(lam2), len(runs), k1 - k0
    cells = np.concatenate([np.arange(s + k0, s + k1) for s, _ in runs])
    h, ubar, factors = mesh.arrays
    h = h[cells]
    t11, t12, t21, t22, x = _transfers(lam2, h, ubar[cells], [f[..., cells] for f in factors]).reshape(5, lanes, k, b)
    after = np.ones((lanes, k, 1))
    for j, (s, end) in enumerate(runs):
        if s + k1 < end:
            after[:, j] = _sigma_at(mesh, lam2, s + k1)
    h = h.reshape(k, b)
    sig = _sigma(x, h)
    ratio = np.concatenate([sig[..., 1:], after], axis=-1) / sig
    cols = (t11, t12 * sig, t21 / sig, t22, np.where(x >= 1.0, sig * h, 0.0), ratio)
    return _sweep_lanes(*(c.reshape(lanes * k, b) for c in cols), *state)


def _theta_pairs(mesh: CellMesh, lams, thetas_l) -> list[tuple[float, float]]:
    """_theta_pair for several lanes, swept together in blocks of columns.

    Column j < n holds a lane's coarse cell j beside half j, column
    n + j half n + j alone; a block holds at most _BLOCK lane-cells and
    ends at column n, and the lanes' (theta, w0, w1, a0) carry from block
    to block, so memory does not grow with the mesh.
    """
    n, lanes = mesh.cells, len(lams)
    lam = np.array(lams)
    lam2 = (lam * lam)[:, None]
    first = zip(*(_sigma_at(mesh, lam2[:, 0], i).tolist() for i in (0, n)))
    starts = [s for lane in zip(lams, thetas_l, first) for s in _entries(mesh, *lane)]  # each lane's coarse then fine start
    state = [np.array(q) for q in zip(*starts)]
    width = max(_BLOCK // (2 * lanes), 1)
    for k0 in range(0, n, width):
        state = _sweep_block(mesh, lam2, ((0, n), (n, 3 * n)), k0, min(k0 + width, n), state)
    coarse = zip(*(q[0::2].tolist() for q in state))
    state = [q[1::2] for q in state]
    width = max(_BLOCK // lanes, 1)
    for k0 in range(0, n, width):
        state = _sweep_block(mesh, lam2, ((2 * n, 3 * n),), k0, min(k0 + width, n), state)
    fine = zip(*(q.tolist() for q in state))
    return [(_exit(mesh, lam, *c), _exit(mesh, lam, *f)) for lam, c, f in zip(lams, coarse, fine)]


def bulk_mesh(p: Potential, rtol: float) -> CellMesh:
    """The potential's mesh for the decade of rtol, built on first use."""
    decade = _decade(rtol)
    meshes = p.cell_meshes
    mesh = meshes.get(decade)
    if mesh is None:
        mesh = meshes.setdefault(decade, build_mesh(p, decade, *bulk_interval(p)))
    return mesh


def _settle(p: Potential, mesh: CellMesh, lam: float, rtol: float, theta_l: float, coarse: float, fine: float):
    """A lane's (angle, cells swept, estimate |fine - coarse|) from its pair on the mesh.

    A pair whose estimate misses rtol * max(theta, pi) is swept again on
    a private copy of the mesh with every cell halved, up to _MAX_REFINE
    times; a non-finite angle, or a miss after that, raises ArithmeticError.
    """
    swept = 0
    for refinements in range(_MAX_REFINE + 1):
        swept += 3 * mesh.cells
        estimate = abs(fine - coarse)
        if not math.isfinite(fine):
            break
        if estimate <= rtol * max(abs(fine), math.pi):
            return fine, swept, estimate
        if refinements < _MAX_REFINE:
            nodes = mesh.nodes
            mesh = _assemble(p, np.insert(nodes, np.arange(1, len(nodes)), 0.5 * (nodes[:-1] + nodes[1:])))
            coarse, fine = _theta_pair(mesh, lam, theta_l)
    raise ArithmeticError(
        f"cell propagator estimate {estimate!r} misses rtol={rtol!r} at lambda={lam!r} "
        f"after {refinements} refinements"
    )


def propagate_lanes(p: Potential, lams, rtol: float, thetas_l) -> list[tuple[float, int, float]]:
    """Each lane's exit angle at x_r, the cells it swept and its estimate |fine - coarse|.

    Lane k is the coupling lams[k] entering at x_l with the angle
    thetas_l[k] on the scale lambda sqrt(V(x_l)); the exit scale is the
    mesh's (module docstring).  A round of at least _MIN_LANES lanes is
    swept together in blocks of at most _BLOCK lane-cells
    (``_theta_pairs``), a smaller one lane by lane.  Raises
    EvalDomainError when V cannot be evaluated or falls to the floor on
    the mesh, ArithmeticError when an estimate stays above rtol.
    """
    mesh = bulk_mesh(p, rtol)
    few = len(lams) < _MIN_LANES
    pairs = map(_theta_pair, [mesh] * len(lams), lams, thetas_l) if few else _theta_pairs(mesh, lams, thetas_l)
    return [_settle(p, mesh, lam, rtol, theta_l, *pair) for lam, theta_l, pair in zip(lams, thetas_l, pairs)]
