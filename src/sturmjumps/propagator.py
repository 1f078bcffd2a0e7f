"""Prüfer phase from a lambda-uniform Liouville-Green cell propagator.

On the Liouville-Green scale xi = int sqrt(V) a solution u = V**(-1/4) g
obeys g'' = -(lambda^2 + U(xi)) g, with U the transformed potential of
liouville_green (``u_from_jet``).  The propagator covers
[x_l, x_r] = ``bulk_interval(p)``: all of [a, b] for the theorem
class, and [a, b] less a sliver at each
singular end for the conjecture class, where U is unbounded (the
slivers are left to ``oscillation``: a Bessel seed near each end, then
RK45 toward the bulk).  A mesh splits that
interval, of length D in xi, into cells, each stored as four numbers: its
length h, the mean Ubar of U over it and U's Legendre P1 and P2
coefficients c1, c2 in xi.  Over a cell
the constant-perturbation method (Ixaru 1984; Ledoux, Van Daele & Vanden
Berghe, MATSLISE, ACM TOMS 31, 2005) carries (g, g') exactly for the
constant Ubar and to first order in c1 P1 + c2 P2, in closed form in
Ixaru's functions eta_k of x = (lambda^2 + Ubar) h^2:

    g(h)  = (eta_-1 + c1 h^2 eta_1/2) g + (h eta_0 + c2 h^3 eta_2/2) g'
    g'(h) = x (c2 h^2 eta_2/2 - eta_0) g/h + (eta_-1 - c1 h^2 eta_1/2) g'

with eta_-1 = cos w, eta_0 = sin(w)/w for x = w^2 > 0 (cosh and sinh
for x < 0) and eta_k = (eta_(k-2) - (2k-1) eta_(k-1)) / (-x).  One formula
serves cells above and below the barrier, so no lambda threshold is
needed.  Where |x| < 16, i.e. at low frequency, where the first-order
error is largest, the terms second order in (c1, c2) are added from a
Taylor series in x (``_second_order_table``), tapered off by |x| = 25.
The error is fourth order in h or better and falls as lambda grows, so
one mesh serves every lambda.

Within cell i the Prüfer angle psi, tan(psi) = sigma g/g', uses the scale
sigma = sqrt(x)/h where the cell spans more than a radian of phase and 1/h
elsewhere.  psi is read by atan2 at both ends of the cell and the change
taken on the branch within pi of the expected advance sqrt(x) (0 on the
slow cells).  At each node the angle is rescaled to the next cell's scale
by atan2, which keeps every multiple of pi.  The sweep enters at x_l with
the angle of (lambda sqrt(V) u, u'), 0 for u(a) = 0 at a regular end,
turned with V(x_l) and V'(x_l) into the direction of (g, g') on the same
branch.  At x_r the exit (g, g') is turned with V(x_r) and V'(x_r) into
the angle of (sigma u, u') on the scale sigma the propagator picks: the
constant scale s = lambda sqrt(max(c_lower, 1)) where x_r = b, the usual
theta(b), and lambda sqrt(V(x_r)) otherwise, the scale on which the angle
shot back from a singular right end arrives to be matched.  V and V' at
both ends are cached on the mesh.

The mesh depends on the potential and the decade of rtol only.  It is
built once, vectorized over cells, by bisecting every cell whose
propagator differs from the product of its two halves' by more than its
share of the decade's tolerance, in the max norm on a scale natural to
each reference frequency: lambda = 0 on the scale max(pi/D, sqrt|Ubar|),
and omega h = z for each z in _Z_REF on the scale omega.  At omega the
tolerance is 10**decade * max(omega D, pi) in all, so a cell's share grows
with z.  The mesh is cached on the Potential.  Every call sweeps the mesh
and the mesh with each cell halved: the fine sweep is the answer and
|fine - coarse| its error estimate.  A lane whose estimate exceeds
rtol * max(theta, pi) is swept again on a private copy with every cell
halved (``_settle``), and fails after _MAX_REFINE such tries.

The cell algebra does not depend on lambda, so ``propagate_lanes``, the
only entry point, takes many couplings, the lanes, at once.  A round of
lanes is one pass over the mesh in blocks of columns, each of at most
_BLOCK lane-cells: per block one _transfer batch over lanes x cells and
a sweep whose node recursion runs on numpy rows across the lanes, with
each lane's angles read by math.atan2 and summed in the one-lane sweep's
order.  _transfer's series product always has at least two rows, since
BLAS sums one row along another path, so a cell's bits do not depend on
the cells beside it, nor a lane's on the lanes beside it or the blocks.
The lanes' sweep state carries from block to block, so memory depends
on the block, not on lanes x cells.  A round of fewer than
_MIN_LANES lanes, a single coupling included, is swept lane by lane
(``_theta_pair``), which is faster there.  The mesh build's refinement
test is batched the same way, over its reference frequencies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .expr import EvalDomainError
from .liouville_green import u_from_jet
from .potential import Potential
from .quadrature import _GL_W, _GL_X

__all__ = ["CellMesh", "build_mesh", "bulk_mesh", "propagate_lanes"]

_TWO_PI = 2.0 * math.pi

_INITIAL_CELLS = 16
_Z_REF = (1.0, 2.0, 4.0, 8.0)  # reference frequencies besides lambda = 0, in radians per cell
_SHARE = 0.5  # fraction of the decade's tolerance the mesh's cells may use
_ROUNDING = 8 * 2.220446049250313e-16  # a gap this small is rounding, not truncation
_MAX_DEPTH = 40
_MAX_CELLS = 50_000
_MAX_REFINE = 3
_BLOCK = 4096  # lane-cells per block of a round's sweep: bounds the sweep's arrays
_MIN_LANES = 8  # fewer lanes than this are swept one at a time, which is faster
_SLIVER = 2.0**-8  # share of the phase left to RK45 at each singular conjecture-class end
_SMALL_X = 0.05  # below this |x| the eta functions come from their series
_SECOND_ORDER_X = (16.0, 25.0)  # second-order terms in full below |x| = 16, tapered off by 25
_CHUNK = 1024  # cells per _transfer call in a batch of calls


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


_ETA_SERIES = np.array([_series(n) for n in (0, 1, 2)])[:, :, None]  # (eta, power, 1)


@functools.cache  # built on first use, not at import
def _second_order_table(terms: int = 16) -> np.ndarray:
    """Taylor coefficients in x of the unit cell's terms second order in (c1, c2).

    g'' = -(x + c1 P1(2t-1) + c2 P2(2t-1)) g on t in [0, 1] is solved as a
    power series in t whose coefficients are polynomials in x, c1 and c2,
    cut at x**(terms-1) and second order in c; each such coefficient is a
    polynomial in t, so the sums at t = 1 are exact.  Row k holds the x**k
    coefficients of the propagator entries 11, 12, 21, 22 (g(1) and g'(1)
    from g(0) = 1 and from g'(0) = 1), each times c1^2, c1 c2 and c2^2.
    """
    # monomials 1, c1, c2, c1^2, c1 c2, c2^2: times c1, the first three
    # become c1, c1^2, c1 c2; times c2 they become c2, c1 c2, c2^2
    du = ((-1.0, 1.0), (2.0, -6.0), (0.0, 6.0))  # t^j coefficients of P1 and P2 in t
    n_max = 2 * terms + 12
    a = np.zeros((n_max + 2, 2, terms, 6))  # t^n coefficient, start, x power, monomial
    a[0, 0, 0, 0] = a[1, 1, 0, 0] = 1.0
    for n in range(n_max):
        rhs = np.zeros((2, terms, 6))
        rhs[:, 1:] = a[n, :, :-1]
        for j, (p1, p2) in enumerate(du[: n + 1]):
            rhs[..., [1, 3, 4]] += p1 * a[n - j, ..., :3]
            rhs[..., [2, 4, 5]] += p2 * a[n - j, ..., :3]
        a[n + 2] = -rhs / ((n + 2) * (n + 1))
    g, dg = a.sum(axis=0), np.tensordot(np.arange(n_max + 2.0), a, axes=1)
    return np.concatenate([g[0, :, 3:], g[1, :, 3:], dg[0, :, 3:], dg[1, :, 3:]], axis=1)



@dataclass(frozen=True, eq=False)
class CellMesh:
    """A coarse mesh of n cells and its halves, for one potential and one rtol decade.

    ``h``, ``ubar``, ``c1`` and ``c2`` hold the n coarse cells and then the
    2n halves in order; ``nodes`` are the coarse cells' ends in x, from
    x_l to x_r.
    """

    nodes: np.ndarray
    h: np.ndarray
    ubar: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    sqrt_vl: float  # sqrt(V(x_l)); 1 at a regular end, where the entry u = 0 needs no V
    beta_l: float  # V'(x_l) / (4 V(x_l)); 0 at a regular end
    sqrt_vr: float  # sqrt(V(x_r))
    beta_r: float  # V'(x_r) / (4 V(x_r))
    scale_r: float  # the exit scale over lambda: sqrt(max(c_lower, 1)) where x_r = b, else sqrt(V(x_r))

    @property
    def cells(self) -> int:
        return len(self.nodes) - 1

    @property
    def length(self) -> float:
        """D_bulk, the xi-length of [x_l, x_r]: the coarse cells' lengths summed."""
        return float(self.h[: self.cells].sum())


def _decade(rtol: float) -> int:
    """The decade of rtol, floor(log10(rtol)), robust to rtol = 10**k in binary."""
    return math.floor(math.log10(rtol) + 1e-9)


def _moments(w, u, xi, h):
    """Ubar, c1, c2 of U over cells of xi-length h from quadrature weights w in xi."""
    t = 2.0 * xi / h[:, None] - 1.0
    wu = w * u
    return (
        wu.sum(axis=1) / h,
        3.0 * (wu * t).sum(axis=1) / h,
        5.0 * (wu * (1.5 * t * t - 0.5)).sum(axis=1) / h,
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
    """(h, Ubar, c1, c2) of the cells [lo, hi] and, interleaved, of their halves.

    V, V' and V'' come from one vectorized jet call at the 10 Gauss nodes
    of every half; xi at the nodes from the Gauss integration matrix.
    """
    n = len(lo)
    mid = 0.5 * (lo + hi)
    a = np.stack([lo, mid], axis=1).ravel()  # halves, left then right per cell
    b = np.stack([mid, hi], axis=1).ravel()
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X
    v, d1, d2 = p.jet2_fn(x)
    floor = 0.0 if p.c_lower is None else max(0.5 * p.c_lower, 0.0)
    bad = ~(v > floor)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise EvalDomainError(f"potential fell to {v.flat[i]!r} (floor {floor!r})", p.source, float(x.flat[i]))
    sq = np.sqrt(v)
    u = u_from_jet(v, d1, d2)
    dxi = half[:, None] * sq  # d xi / d t at the nodes
    xi = dxi @ _S.T
    hh = dxi @ _GL_W
    w = dxi * _GL_W
    halves = (hh, *_moments(w, u, xi, hh))
    # a whole cell integrates over both halves' nodes, the right ones shifted by the left length
    hw = hh[0::2] + hh[1::2]
    xiw = np.concatenate([xi[0::2], xi[1::2] + hh[0::2, None]], axis=1)
    whole = (hw, *_moments(w.reshape(n, -1), u.reshape(n, -1), xiw, hw))
    return whole, halves


def _etas(x: np.ndarray):
    """Ixaru's eta_-1 .. eta_2 at x = (lambda^2 + Ubar) h^2 of either sign."""
    ax = np.abs(x)
    r = np.sqrt(ax)
    with np.errstate(all="ignore"):  # x = 0 and the unused cosh branch
        if x.min() > 0.0:
            em1, e0 = np.cos(r), np.sin(r) / r
        else:
            pos = x > 0.0
            em1 = np.where(pos, np.cos(r), np.cosh(r))
            e0 = np.where(pos, np.sin(r), np.sinh(r)) / r
        e1 = (e0 - em1) / x
        e2 = (3.0 * e1 - e0) / x
    small = ax < _SMALL_X
    if small.any():
        # Horner's rule for the three series at once
        y = -0.5 * x[small]
        acc = _ETA_SERIES[:, -1] * np.ones_like(y)
        for c in _ETA_SERIES.transpose(1, 0, 2)[-2::-1]:
            acc = acc * y + c
        e0[small], e1[small], e2[small] = acc
    return em1, e0, e1, e2


def _transfer(lam2, h, ubar, c1, c2):
    """The cells' (g, g') propagators t11, t12, t21, t22 at lambda^2 = lam2, and x.

    A cell's bits do not depend on the other cells of the call: the
    arithmetic is elementwise, and the second-order series' matrix product
    always has at least two rows, since BLAS sums one row along another path.
    """
    h2 = h * h
    x = (lam2 + ubar) * h2
    em1, e0, e1, e2 = _etas(x)
    k1 = 0.5 * c1 * h2 * e1
    k2 = 0.5 * c2 * h2 * e2
    t = [em1 + k1, h * (e0 + k2), x * (k2 - e0) / h, em1 - k1]
    full, gone = _SECOND_ORDER_X
    ax = np.abs(x)
    near = ax < gone
    if near.any():
        # second order in (c1, c2) from the unit cell's series, scaled by
        # h^4 (c h^2 squared) and by h, 1/h for the off-diagonal entries
        part = slice(None) if near.all() else near
        xn, axn, hn = x[part], ax[part], h[part]
        a, b = c1[part] * h2[part], c2[part] * h2[part]
        table = _second_order_table()
        powers = np.vander(xn, len(table), increasing=True)
        series = (np.repeat(powers, 2, axis=0) if len(xn) == 1 else powers) @ table
        series = series[: len(xn)].reshape(-1, 4, 3)
        terms = series[:, :, 0] * (a * a)[:, None] + series[:, :, 1] * (a * b)[:, None] + series[:, :, 2] * (b * b)[:, None]
        weight = 1.0
        if axn.max() > full:
            weight = np.cos(0.5 * math.pi * np.clip((axn - full) / (gone - full), 0.0, 1.0)) ** 2
        for k, scale in enumerate((weight, weight * hn, weight / hn, weight)):
            t[k][part] += scale * terms[:, k]
    return (*t, x)


def _transfers(lam2, h, ubar, c1, c2) -> np.ndarray:
    """_transfer for several rows on the same cells, as an array (5, rows, cells).

    Row k is at lambda^2 = lam2[k], one value or one per cell.  The rows
    go to _transfer in runs of whole rows of at most _CHUNK cells, which
    bounds the series' temporaries (np.vander's rows); a row longer than
    _CHUNK is a run of its own.  A cell's bits do not depend on its run.
    """
    rows, cells = len(lam2), len(h)
    out = np.empty((5, rows, cells))
    step = max(_CHUNK // cells, 1)
    for i in range(0, rows, step):
        k = min(step, rows - i)
        run = _transfer(
            np.broadcast_to(lam2[i : i + k], (k, cells)).ravel(),
            *(np.tile(q, k) for q in (h, ubar, c1, c2)),
        )
        out[:, i : i + k] = np.reshape(run, (5, k, cells))
    return out


def _mismatches(whole, halves, lam2s, sigs):
    """Max-norm gaps, each at lam2s[k] on the scale sigs[k], between every cell's propagator and its halves' product.

    One _transfers batch over all the frequencies takes the whole cells
    and both halves together.
    """
    m = len(whole[0])
    cells = [np.concatenate([w, q[0::2], q[1::2]]) for w, q in zip(whole, halves)]
    lam2 = np.tile([np.broadcast_to(q, m) for q in lam2s], 3)
    parts = _transfers(lam2, *cells)[:4].reshape(4, -1, 3, m).transpose(2, 0, 1, 3)
    (t11, t12, t21, t22), (l11, l12, l21, l22), (r11, r12, r21, r22) = parts
    sig = np.array([np.broadcast_to(q, m) for q in sigs])
    return np.maximum.reduce([
        np.abs(r11 * l11 + r12 * l21 - t11),
        np.abs(r11 * l12 + r12 * l22 - t12) * sig,
        np.abs(r21 * l11 + r22 * l21 - t21) / sig,
        np.abs(r21 * l12 + r22 * l22 - t22),
    ])


def _assemble(p: Potential, nodes: np.ndarray, whole=None, halves=None) -> CellMesh:
    if whole is None:
        whole, halves = _cells(p, nodes[:-1], nodes[1:])
    x_l, x_r = float(nodes[0]), float(nodes[-1])
    vl, dvl = p.value_d1_fn(x_l) if x_l > p.a else (1.0, 0.0)  # u(a) = 0 needs no V(a)
    vr, dvr = p.value_d1_fn(x_r)
    scale_r = math.sqrt(max(p.c_lower or 0.0, 1.0)) if x_r == p.b else math.sqrt(vr)
    arrays = [np.concatenate([w, q]) for w, q in zip(whole, halves)]
    return CellMesh(nodes, *arrays, math.sqrt(vl), 0.25 * dvl / vl, math.sqrt(vr), 0.25 * dvr / vr, scale_r)


def build_mesh(p: Potential, decade: int, x_l: float, x_r: float) -> CellMesh:
    """The cell mesh of [x_l, x_r] for ``decade``, by vectorized bisection from equal cells in x."""
    edges = np.linspace(x_l, x_r, _INITIAL_CELLS + 1)
    lo, hi = edges[:-1], edges[1:]
    whole, halves = _cells(p, lo, hi)
    # at a frequency where theta(b) ~ omega D the cells' mismatches may add
    # up to _SHARE * 10**decade * max(omega D, pi); cell i's share is
    # 10**decade * max(z, pi h_i/D) at z = omega h_i
    scale = _SHARE * 10.0**decade
    length = whole[0].sum()
    floor = scale * math.pi / length
    done = []
    for _ in range(_MAX_DEPTH):
        h, ubar = whole[0], whole[1]
        # lambda = 0 on the scale of the first jump, pi/D, or of sqrt(|Ubar|);
        # then omega = z/h on its own scale; a gap at rounding level passes
        allowed = np.maximum(floor * h, _ROUNDING)
        sig0 = np.maximum(math.pi / length, np.sqrt(np.abs(ubar)))
        lam2s = [0.0] + [np.maximum((z / h) ** 2 - ubar, 0.0) for z in _Z_REF]
        gaps = _mismatches(whole, halves, lam2s, [sig0] + [z / h for z in _Z_REF])
        ok = gaps[0] <= allowed
        for gap, z in zip(gaps[1:], _Z_REF):
            ok &= gap <= np.maximum(scale * z, allowed)
        done.append((lo[ok], hi[ok], [q[ok] for q in whole], [q[np.repeat(ok, 2)] for q in halves]))
        if ok.all():
            break
        split = ~ok
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        if sum(len(part[0]) for part in done) + len(lo) > _MAX_CELLS:
            break
        whole, halves = _cells(p, lo, hi)
    else:
        raise ArithmeticError(f"cell mesh did not converge in {_MAX_DEPTH} bisections near x={lo[0]!r}")
    if not ok.all():
        raise ArithmeticError(f"cell mesh needs more than {_MAX_CELLS} cells")
    lo_all = np.concatenate([part[0] for part in done])
    order = np.argsort(lo_all, kind="stable")
    nodes = np.append(lo_all[order], x_r)
    whole = [np.concatenate([part[2][k] for part in done])[order] for k in range(4)]
    pairs = np.stack([2 * order, 2 * order + 1], axis=1).ravel()
    halves = [np.concatenate([part[3][k] for part in done])[pairs] for k in range(4)]
    return _assemble(p, nodes, whole, halves)


def _sweep(m11, m12, m21, m22, adv, ratio, theta, w0, w1, a0):
    """Continuous Prüfer angle over a run of cells, and the final (g, g') direction.

    The m's are the cells' propagators in their own scale, ``adv`` the
    expected advance, ``ratio`` the rescale at each cell's far end;
    ``theta`` is the entry angle, (w0, w1) its direction on the first
    cell's scale and a0 = atan2(w0, w1).
    """
    atan2 = math.atan2
    for t11, t12, t21, t22, e, r in zip(m11, m12, m21, m22, adv, ratio):
        y0 = t11 * w0 + t12 * w1
        y1 = t21 * w0 + t22 * w1
        a1 = atan2(y0, y1)
        d = a1 - a0 - e
        n = abs(y0) + abs(y1)
        w0 = y0 * r / n
        w1 = y1 / n
        a0 = atan2(w0, w1)
        theta += e + d - _TWO_PI * round(d / _TWO_PI) + a0 - a1
    return theta, w0, w1, a0


def _atan2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """math.atan2 over two arrays, _CHUNK values at a time (np.arctan2 rounds differently)."""
    out = np.empty(u.shape)
    u, v, flat = u.ravel(), v.ravel(), out.reshape(-1)
    for i in range(0, len(flat), _CHUNK):
        flat[i : i + _CHUNK] = list(map(math.atan2, u[i : i + _CHUNK].tolist(), v[i : i + _CHUNK].tolist()))
    return out


def _sweep_lanes(m11, m12, m21, m22, adv, ratio, theta, w0, w1, a0):
    """_sweep for many lanes at once, with _sweep's bits in every lane.

    The arguments are _sweep's with a row per lane: the cells' columns
    (lanes x cells) and the entry values (one per lane).  The node
    recursion runs on numpy rows across the
    lanes, a lane's two components side by side; the angles are then read
    by math.atan2 and summed by np.cumsum from theta, which adds in
    _sweep's order.  Returns the exit (theta, w0, w1, a0), so that a sweep
    may go on from there.
    """
    lanes, cells = m11.shape
    # per cell [[t11, t21], [t12, t22]] and [ratio, 1]: y = mat[0] w0 + mat[1] w1, w' = y [ratio, 1] / n
    mat = np.empty((cells, 2, 2, lanes))
    mat[:, 0, 0], mat[:, 0, 1], mat[:, 1, 0], mat[:, 1, 1] = m11.T, m21.T, m12.T, m22.T
    scale = np.ones((cells, 2, lanes))
    scale[:, 0] = ratio.T
    y = np.empty((cells, 2, lanes))
    w = np.empty((cells + 1, 2, lanes))
    w[0] = w0, w1
    # w[i] read as [[w0, w0], [w1, w1]], to meet mat[i] without broadcasting
    pairs = np.lib.stride_tricks.as_strided(w, (cells + 1, 2, 2, lanes), (w.strides[0], w.strides[1], 0, w.strides[2]), writeable=False)
    with np.errstate(all="ignore"):  # a lane that fails ends non-finite
        for mi, wi, si, yi, wo in zip(mat, pairs, scale, y, w[1:]):
            terms = mi * wi
            np.add(terms[0], terms[1], out=yi)
            size = np.abs(yi)
            np.multiply(yi, si, out=wo)
            wo /= size + size[::-1]  # |y0| + |y1| in both rows
        a1, a = _atan2(y[:, 0], y[:, 1]), _atan2(w[1:, 0], w[1:, 1])
        d = a1 - np.vstack([a0, a[:-1]]) - adv.T
        steps = adv.T + d - _TWO_PI * np.round(d / _TWO_PI) + a - a1
    return np.cumsum(np.vstack([theta, steps]), axis=0)[-1], w[-1, 0], w[-1, 1], a[-1]


def _sigma(x, h):
    """The Prüfer scale of cells of length h at x = (lambda^2 + Ubar) h^2."""
    return np.sqrt(np.maximum(x, 1.0)) / h


def _sigma_at(mesh: CellMesh, lam2, i: int):
    """Cell i's sigma at each lambda^2 in lam2, with the bits _scales reads from _transfer's x."""
    h = mesh.h[i]
    return _sigma((lam2 + mesh.ubar[i]) * (h * h), h)


def _scales(x, h, after):
    """Each cell's Prüfer scale sigma, expected advance and rescale at its far end, from x (cells along the last axis).

    A cell rescales to the next one's sigma, the last one to ``after``:
    the sigma of the cell beyond it, or 1 at the end of its sweep.
    """
    sig = _sigma(x, h)
    adv = np.where(x >= 1.0, sig * h, 0.0)
    ratio = np.concatenate([sig[..., 1:], after], axis=-1) / sig
    return sig, adv, ratio


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
    """The exit angle on the coarse mesh and on its halves."""
    n = mesh.cells
    t11, t12, t21, t22, x = _transfer(lam * lam, mesh.h, mesh.ubar, mesh.c1, mesh.c2)
    sig, adv, ratio = _scales(x, mesh.h, np.ones(1))
    ratio[n - 1] = 1.0 / sig[n - 1]  # the coarse sweep ends there
    cols = [a.tolist() for a in (t11, t12 * sig, t21 / sig, t22, adv, ratio)]
    starts = _entries(mesh, lam, theta_l, (float(sig[0]), float(sig[n])))
    return tuple(
        _exit(mesh, lam, *_sweep(*(c[part] for c in cols), *start))
        for part, start in zip((slice(0, n), slice(n, 3 * n)), starts)
    )


def _sweep_block(mesh: CellMesh, lam2, runs, k0: int, k1: int, state):
    """The lanes' sweep state carried over columns k0 .. k1 - 1 of the runs of cells in ``runs``.

    Each run is (first cell, end of its sweep) in the mesh's arrays, and a
    lane has a row per run, side by side in ``state``; lam2 holds a row
    per lane.  One _transfers batch and one _scales cover the block; the
    last column rescales to the sigma of each run's next cell.
    """
    lanes, k, b = len(lam2), len(runs), k1 - k0
    cells = np.concatenate([np.arange(s + k0, s + k1) for s, _ in runs])
    h = mesh.h[cells]
    t11, t12, t21, t22, x = _transfers(lam2, h, mesh.ubar[cells], mesh.c1[cells], mesh.c2[cells])
    after = np.ones((lanes, k, 1))
    for j, (s, end) in enumerate(runs):
        if s + k1 < end:
            after[:, j] = _sigma_at(mesh, lam2, s + k1)
    sig, adv, ratio = _scales(x.reshape(lanes, k, b), h.reshape(k, b), after)
    rows = [q.reshape(lanes, k, b) for q in (t11, t12, t21, t22)]
    cols = (rows[0], rows[1] * sig, rows[2] / sig, rows[3], adv, ratio)
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
    if len(lams) < _MIN_LANES:
        pairs = [_theta_pair(mesh, lam, theta_l) for lam, theta_l in zip(lams, thetas_l)]
    else:
        pairs = _theta_pairs(mesh, lams, thetas_l)
    return [_settle(p, mesh, lam, rtol, theta_l, *pair) for lam, theta_l, pair in zip(lams, thetas_l, pairs)]
