"""The cell propagator: its pieces, its mesh and its contracts, on both classes."""

import functools
import math
import pickle
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from sturmjumps import oscillation, propagator
from sturmjumps.oscillation import PhaseError, phase
from sturmjumps.potential import Potential, Regularity
from sturmjumps.expr import EvalDomainError
from sturmjumps.quadrature import QuadratureError, integrate_sqrt_v


def _mp_etas(x):
    """eta_-1 .. eta_2, x eta_3 and x eta_4 at x by mpmath, at a precision that the upward recurrence cannot exhaust."""
    x = mpmath.mpf(x)
    if x == 0:
        return [1, 1, mpmath.mpf(1) / 3, mpmath.mpf(1) / 15, 0, 0]
    r = mpmath.sqrt(abs(x))
    want = [mpmath.cos(r) if x > 0 else mpmath.cosh(r), (mpmath.sin(r) if x > 0 else mpmath.sinh(r)) / r]
    for k in range(1, 5):
        want.append(((2 * k - 1) * want[-1] - want[-2]) / x)
    return want[:4] + [x * want[4], x * want[5]]


def test_eta_functions_on_both_sides_of_the_barrier():
    xs = [0.0, 1e-9, -1e-9, 1e-3, -1e-3, 0.049, 0.051, -0.051, 0.3, -0.3, 1.0, -1.0, 4.0, -4.0]
    xs += [15.9, -15.9, 24.99, -24.99, 25.0, -25.0, 30.0, -30.0, 2500.0, -900.0]
    xa = np.array(xs)
    got = propagator._etas(xa, np.abs(xa), xa.min(), np.abs(xa).max())
    # _transfer takes x eta_3 and x eta_4 from the recurrence from |x| = 25
    # on and from their series on the near cells below it
    near = np.abs(xa) < propagator._SECOND_ORDER_X[1]
    xe3 = 5.0 * got[3] - got[2]
    xe = np.array([xe3, 7.0 * xe3 / np.where(near, 1.0, xa) - got[3]])
    xe[:, near] = propagator._near_series(xa[near], np.zeros((6, near.sum())))[1]
    with mpmath.workdps(100):
        for i, x in enumerate(xs):
            want = _mp_etas(x)
            for k, w in enumerate(want[:4]):
                assert float(got[k][i]) == pytest.approx(float(w), rel=1e-12, abs=1e-15), (x, k)
            # they enter the cell beside terms of the size of eta_-1: within
            # an ulp of that size, though the recurrence alone loses up to 10
            # digits just above |x| = 0.05
            scale = max(1.0, abs(float(want[0])))
            for k in (0, 1):
                assert abs(float(xe[k, i] - want[4 + k])) <= np.finfo(float).eps * scale, (x, k)


def _unit_cell_rk4(x, c1, c2, c3=0.0, c4=0.0, steps=4000):
    # g'' = -(x + c1 P1(2t-1) + .. + c4 P4(2t-1)) g on [0, 1], both fundamental solutions
    def rhs(t, y):
        u = 2.0 * t - 1.0
        p2 = 1.5 * u * u - 0.5
        p3 = (5.0 * u * p2 - 2.0 * u) / 3.0
        p4 = (7.0 * u * p3 - 3.0 * p2) / 4.0
        q = x + c1 * u + c2 * p2 + c3 * p3 + c4 * p4
        return np.array([y[1], -q * y[0]])

    y, dt = np.eye(2), 1.0 / steps
    for i in range(steps):
        t = i * dt
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y  # rows (g, g'), columns from g(0) = 1 and g'(0) = 1


def _kernel(lam2, h, ubar, *c, batched=False):
    """propagator._transfer, or _transfers if batched, on cells given by their arrays h, ubar and c1 .. c4."""
    kernel = propagator._transfers if batched else propagator._transfer
    return kernel(lam2, h, ubar, propagator._cell_factors(h, *c))


def _unit_cell_error(x, *c):
    """The max-norm gap of the unit cell's transfer, moments c1 .. c4, from an accurate solution."""
    one = np.ones(1)
    got = _kernel(x, one, 0.0 * one, *(ck * one for ck in c))
    got = np.array([[got[0][0], got[1][0]], [got[2][0], got[3][0]]])
    return np.abs(got - _unit_cell_rk4(x, *c)).max()


@pytest.mark.parametrize("x", [-9.0, -1.0, 0.0, 0.02, 0.7, 4.0, 15.0])
def test_cell_propagator_is_second_order_in_the_perturbation(x):
    # on |x| <= 16 the cell carries the (c1, c2, c3) terms to second order,
    # so against an accurate solution only third-order terms are left: an
    # eighth of them when the moments halve; it carries the c4 terms to
    # first order, so what is left with them is second order, a quarter
    big = max(1.0, math.cosh(math.sqrt(max(-x, 0.0))))
    for c in ((0.05, -0.03, 0.0, 0.0), (0.0, 0.0, 0.05, 0.0), (0.05, -0.03, 0.05, 0.0)):
        full, half = (_unit_cell_error(x, *(s * ck for ck in c)) for s in (1.0, 0.5))
        assert full <= 1e-7 * big and 7.6 <= full / half <= 8.4, (c, full, half)
    for c in ((0.0, 0.0, 0.0, -0.03), (0.0, 0.0, 0.05, -0.03), (0.05, -0.03, 0.05, -0.03)):
        full, half = (_unit_cell_error(x, *(s * ck for ck in c)) for s in (1.0, 0.5))
        assert full <= 2e-6 * big and 3.6 <= full / half <= 4.4, (c, full, half)


def _unit_cell_series(x, c1, c2, c3, c4, terms=120):
    """The unit cell's entries 11, 12, 21, 22 by order, in mpmath: [zeroth, first in (c1, c2, c3), second in (c1, c2, c3), first in c4].

    g'' = -(x + c1 P1(2t-1) + .. + c4 P4(2t-1)) g on [0, 1] as power series
    in t, one per order, each driven by the order below it.
    """
    x = mpmath.mpf(x)
    q = [c1 * p1 + c2 * p2 + c3 * p3 for p1, p2, p3 in ((-1, 1, -1), (2, -6, 12), (0, 6, -30), (0, 0, 20))]
    q4 = [c4 * p for p in (1, -20, 90, -140, 70)]  # P4(2t-1) in t
    entries = []
    for start in ((1, 0), (0, 1)):
        orders = [[mpmath.mpf(0)] * terms for _ in range(4)]
        orders[0][:2] = [mpmath.mpf(v) for v in start]
        for n in range(terms - 2):
            def drive(poly, lower):
                return sum(mpmath.mpf(poly[j]) * lower[n - j] for j in range(min(len(poly), n + 1)))
            k = (n + 2) * (n + 1)
            orders[0][n + 2] = -x * orders[0][n] / k
            orders[1][n + 2] = -(x * orders[1][n] + drive(q, orders[0])) / k
            orders[2][n + 2] = -(x * orders[2][n] + drive(q, orders[1])) / k
            orders[3][n + 2] = -(x * orders[3][n] + drive(q4, orders[0])) / k
        entries.append([(sum(a), sum(n * v for n, v in enumerate(a))) for a in orders])
    return [[entries[0][o][0], entries[1][o][0], entries[0][o][1], entries[1][o][1]] for o in range(4)]


def test_transfer_matches_an_independent_unit_cell_series():
    # the kernel against power series in t, second order in (c1, c2, c3) and
    # first order in c4, with the second order tapered off as the kernel
    # tapers it, on cells of length 1 and 0.37: within 64 ulps of the scale
    # of eta_-1 on every path (the eta series, their recurrence, near,
    # tapered and far cells), where 25 are seen with moments up to 1
    rng = np.random.default_rng(31)
    full, gone = propagator._SECOND_ORDER_X
    xs = [-25.0, -16.5, -9.0, -1.0, -0.04, 0.0, 1e-7, 0.03, 0.5, 3.0, 12.0, 15.99, 17.0, 20.5, 24.9, 25.0, 31.0, 60.0]
    with mpmath.workdps(40):
        for x in xs:
            for h, ubar in ((1.0, 0.0), (0.37, 1.3)):
                c = rng.uniform(-1.0, 1.0, 4)
                cell = [np.array([v]) for v in (h, ubar, *(c / h**2))]
                got = [float(t[0]) for t in _kernel(np.array([x / h**2 - ubar]), *cell)[:4]]
                got[1], got[2] = got[1] / h, got[2] * h
                zeroth, first, second, fourth = _unit_cell_series(x, *c)
                weight = math.cos(0.5 * math.pi * min(max((abs(x) - full) / (gone - full), 0.0), 1.0)) ** 2
                want = [zeroth[e] + first[e] + fourth[e] + (weight * second[e] if abs(x) < gone else 0) for e in range(4)]
                scale = max(1.0, math.cosh(math.sqrt(max(-x, 0.0))))
                for e in range(4):
                    assert abs(float(got[e] - want[e])) <= 64 * np.finfo(float).eps * scale, (x, h, e)


def test_mesh_lengths_add_up_to_d(v_sin, v_exp):
    for p in (v_sin, v_exp):
        phase(p, 3.0, rtol=1e-11)
        mesh = p.cell_meshes[-11]
        n = mesh.cells
        d = integrate_sqrt_v(p, p.a, p.b, 1e-13).value
        assert mesh.h[:n].sum() == pytest.approx(d, rel=1e-13)
        assert mesh.h[n:].sum() == pytest.approx(d, rel=1e-13)
        assert np.allclose(mesh.h[:n], mesh.h[n::2] + mesh.h[n + 1 :: 2], rtol=1e-13, atol=0.0)
        assert mesh.nodes[0] == p.a and mesh.nodes[-1] == p.b


def test_one_mesh_serves_every_lambda():
    # the same cells at lambda = 10, 100 and 1000, at most a few hundred of them
    p = Potential.from_formula("2+sin(x)", 0.0, 3.0)
    results = [phase(p, lam, rtol=1e-11) for lam in (10.0, 100.0, 1000.0)]
    mesh = p.cell_meshes[-11]
    assert list(p.cell_meshes) == [-11]
    assert [r.cells for r in results] == [3 * mesh.cells] * 3
    assert mesh.cells <= 200
    for r in results:
        assert r.steps == r.rejected_steps == 0
        assert 0.0 <= r.error_estimate <= 1e-11 * r.theta_b / math.pi


def test_phase_is_bit_identical_whatever_came_before():
    def fresh():
        return Potential.from_formula("2+sin(x)", 0.0, 3.0)

    first = phase(fresh(), 50.0).theta_b
    p = fresh()
    for lam, rtol in ((1000.0, 1e-12), (3.0, 1e-11), (400.0, 1e-9)):
        phase(p, lam, rtol=rtol)
    assert phase(p, 50.0).theta_b == first
    mesh = p.cell_meshes[-10]
    nodes = mesh.nodes.copy()
    q = pickle.loads(pickle.dumps(p))
    assert "cell_meshes" not in q.__dict__  # a pickle carries no mesh
    assert phase(q, 50.0).theta_b == first
    # no call changes a cached mesh
    assert p.cell_meshes[-10] is mesh and np.array_equal(mesh.nodes, nodes)


def test_estimate_miss_refines_a_private_copy(monkeypatch):
    # a mesh far too coarse for its decade: the call halves a copy until the
    # estimate meets rtol, and the cached mesh stays as it was built (the
    # build's 16 first cells already meet rtol here, so it starts from 8)
    monkeypatch.setattr(propagator, "_SHARE", 1e5)
    monkeypatch.setattr(propagator, "_INITIAL_CELLS", 8)
    p = Potential.from_formula("2+sin(x)", 0.0, 3.0)
    res = phase(p, 2.0, rtol=1e-12)
    mesh = p.cell_meshes[-12]
    assert res.cells > 3 * mesh.cells
    assert res.error_estimate <= 1e-12 * res.theta_b
    again = phase(p, 2.0, rtol=1e-12)
    assert (again.theta_b, again.cells) == (res.theta_b, res.cells)
    assert p.cell_meshes[-12] is mesh and mesh.cells == len(mesh.h) // 3
    monkeypatch.setattr(propagator, "_MAX_REFINE", 0)
    with pytest.raises(PhaseError, match="refinements"):
        phase(Potential.from_formula("2+sin(x)", 0.0, 3.0), 2.0, rtol=1e-12)


def test_barrier_cells_in_the_steep_dip():
    # 1.2+sin(3x) has U near -56 at its minima: at lambda <= 3 those cells sit
    # below the barrier, lambda^2 + Ubar < 0, and take the cosh/sinh transfer
    p = Potential.from_formula("1.2+1.0*sin(3*x)", 0.0, 4.0)
    res = phase(p, 3.0)
    mesh = p.cell_meshes[-10]
    assert (mesh.ubar + 9.0 < 0.0).any()
    assert res.error_estimate <= 1e-10 * max(res.theta_b, math.pi)


# theta(b) of the theorem class, bit for bit, at (lambda, rtol): the
# Dirichlet entry at a and the V(b) conversion at b.  The exp(x) entries
# are within 7.2e-15 of the exact angle (test_root_contract's Bessel form);
# one mesh of 16 cells serves both decades there
_PINNED = {
    ("2+sin(x)", 3.0): [
        (0.7, 1e-10, 3.488412905891257), (30.0, 1e-10, 146.67004910846455),
        (1000.0, 1e-10, 4888.451363271735), (0.7, 1e-12, 3.488412905891258),
        (30.0, 1e-12, 146.67004910846416), (1000.0, 1e-12, 4888.451363271734),
    ],
    ("exp(x)", 1.0): [
        (0.7, 1e-10, 0.84049003208543), (30.0, 1e-10, 38.740075298912636),
        (1000.0, 1e-10, 1297.4564106285789), (0.7, 1e-12, 0.84049003208543),
        (30.0, 1e-12, 38.740075298912636), (1000.0, 1e-12, 1297.4564106285789),
    ],
    ("(1+x)^(-4)", 1.0): [
        (0.7, 1e-10, 0.6205321132819361), (30.0, 1e-10, 14.405897238437246),
        (1000.0, 1e-10, 500.6423175730853), (0.7, 1e-12, 0.6205321132819361),
        (30.0, 1e-12, 14.405897238437246), (1000.0, 1e-12, 500.6423175730853),
    ],
}


@pytest.mark.parametrize("source,b", list(_PINNED))
def test_theorem_class_theta_b_is_pinned(source, b):
    p = Potential.from_formula(source, 0.0, b)
    for lam, rtol, want in _PINNED[source, b]:
        assert phase(p, lam, rtol=rtol).theta_b == want


def _conjecture(source, gamma_a, gamma_b):
    return Potential.from_formula(
        source, 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=gamma_a, gamma_b=gamma_b
    )


@pytest.mark.parametrize("source,gamma_a,gamma_b", [("x", 1.0, 0.0), ("(1-x)/x", -1.0, 1.0)])
def test_conjecture_mesh_is_built_once_per_decade(source, gamma_a, gamma_b):
    # one mesh of the bulk [x_l, x_r] serves lambda = 10, 100 and 1000; the
    # singular ends are left to RK45
    p = _conjecture(source, gamma_a, gamma_b)
    x_l, x_r = propagator.bulk_interval(p)
    assert p.a < x_l < x_r <= p.b
    assert (x_r < p.b) == (gamma_b != 0.0)
    first = phase(p, 10.0, rtol=1e-11)
    mesh = p.cell_meshes[-11]
    assert mesh.nodes[0] == x_l and mesh.nodes[-1] == x_r
    for lam in (100.0, 1000.0):
        res = phase(p, lam, rtol=1e-11)
        assert p.cell_meshes[-11] is mesh
        assert res.cells == first.cells == 3 * mesh.cells
        assert res.steps > 0
        assert 0.0 < res.error_estimate <= 1e-11 * res.theta_b
    assert list(p.cell_meshes) == [-11]
    phase(p, 100.0, rtol=1e-12)
    assert sorted(p.cell_meshes) == [-12, -11]
    rebuilt = propagator.build_mesh(p, -11, x_l, x_r)
    assert np.array_equal(rebuilt.nodes, mesh.nodes) and np.array_equal(rebuilt.h, mesh.h)


def test_conjecture_phase_is_bit_identical_whatever_came_before():
    def fresh():
        return _conjecture("(1-x)/x", -1.0, 1.0)

    first = phase(fresh(), 50.0).theta_b
    p = fresh()
    for lam, rtol in ((800.0, 1e-12), (3.0, 1e-11), (400.0, 1e-9)):
        phase(p, lam, rtol=rtol)
    assert phase(p, 50.0).theta_b == first
    q = pickle.loads(pickle.dumps(p))
    assert "cell_meshes" not in q.__dict__
    assert phase(q, 50.0).theta_b == first


# -- lanes: many couplings swept at once, bit for bit the one-lane path ------


def _lane_case(name, monkeypatch):
    """(potential, couplings, rtol) for one lane test, with its own mesh set-up."""
    if name == "barrier":
        # lambda <= 3: cells below the barrier in the steep dip
        p = Potential.from_formula("1.2+1.0*sin(3*x)", 0.0, 4.0)
        return p, np.geomspace(0.05, 3.0, 85), 1e-10
    if name == "taper":
        # lambda h across |x| = 16..25, where the second-order terms taper off
        p = Potential.from_formula("2+sin(x)", 0.0, 3.0)
        return p, np.geomspace(14.0, 400.0, 85), 1e-11
    if name == "refine":
        # a mesh too coarse for its decade: some lanes miss rtol and are refined
        # (the build's 16 first cells already meet rtol here, so it starts from 8)
        monkeypatch.setattr(propagator, "_SHARE", 300.0)
        monkeypatch.setattr(propagator, "_INITIAL_CELLS", 8)
        p = Potential.from_formula("2+sin(x)", 0.0, 3.0)
        return p, np.geomspace(0.5, 2000.0, 85), 1e-11
    if name == "linear":
        return _conjecture("x", 1.0, 0.0), np.geomspace(5.0, 2000.0, 85), 1e-11
    return _conjecture("(1-x)/x", -1.0, 1.0), np.geomspace(5.0, 2000.0, 85), 1e-11


@pytest.mark.parametrize("case", ["barrier", "taper", "refine", "linear", "rational"])
def test_lanes_match_one_lane_phase_bit_for_bit(case, monkeypatch):
    p, lams, rtol = _lane_case(case, monkeypatch)
    lams = lams.tolist()
    want = [repr(phase(p, lam, rtol=rtol)) for lam in lams]
    mesh = p.cell_meshes[propagator._decade(rtol)]
    for lanes in (1, 7):
        assert [repr(r) for r in oscillation._phases(p, lams[:lanes], rtol)] == want[:lanes], lanes
    # blocks of one column, of two columns beside the coarse cells and five
    # after them, and one block each side of column n
    for lanes in (8, 23, 85):
        for block in (1, 5 * lanes, 10**7):
            monkeypatch.setattr(propagator, "_BLOCK", block)
            got = oscillation._phases(p, lams[:lanes], rtol)
            assert [repr(r) for r in got] == want[:lanes], (lanes, block)
    x = (np.array(lams)[:, None] ** 2 + mesh.ubar) * mesh.h**2
    if case == "barrier":
        assert (x < 0.0).any()
    if case == "taper":
        assert ((np.abs(x) > 16.0) & (np.abs(x) < 25.0)).any()
    if case == "refine":
        cells = {r.cells for r in got}
        assert 3 * mesh.cells in cells and max(cells) > 3 * mesh.cells


def test_one_lane_sweep_matches_the_lane_sweep_bit_for_bit():
    # two independent read-outs of the same nodes: the one-lane float loop
    # into one buffer, each sweep summed on its own, and a lane's numpy rows
    # read column by column; 200 couplings and entry angles on each mesh
    rng = np.random.default_rng(29)
    meshes = [
        (Potential.from_formula("2+sin(x)", 0.0, 3.0), 1e-10),
        (Potential.from_formula("2+sin(x)", 0.0, 3.0), 1e-12),
        (Potential.from_formula("exp(x)", 0.0, 1.0), 1e-11),
        (Potential.from_formula("1.2+sin(3*x)", 0.0, 3.0), 1e-11),
        (_conjecture("x", 1.0, 0.0), 1e-11),
        (_conjecture("(1-x)/x", -1.0, 1.0), 1e-10),
    ]
    seen = set()
    for p, rtol in meshes:
        mesh = propagator.bulk_mesh(p, rtol)
        n = mesh.cells
        for lam, theta_l in zip(np.geomspace(0.05, 3000.0, 200).tolist(), rng.uniform(0.0, 7.0, 200).tolist()):
            assert propagator._theta_pair(mesh, lam, theta_l) == propagator._theta_pairs(mesh, [lam], [theta_l])[0], (p.source, lam)
            x = (lam * lam + mesh.ubar) * mesh.h**2
            far = np.abs(x) >= propagator._SECOND_ORDER_X[1]
            seen.add("all far" if far.all() else "all near" if not far.any() else "mixed")
            if far[:n].all() and not far[n:].all():
                seen.add("coarse far, near halves")
            if (x < 0.0).any():
                seen.add("below the barrier")
            if ((np.abs(x) > propagator._SECOND_ORDER_X[0]) & ~far).any():
                seen.add("taper")
    assert seen == {"all far", "all near", "mixed", "coarse far, near halves", "below the barrier", "taper"}


def test_arctan2_bits_do_not_depend_on_the_array():
    # lanes match one-lane calls because _angles reads every node with
    # np.arctan2, whose bits for an element must not depend on the length,
    # stride or layout of the array it is in, nor on a scalar call
    rng = np.random.default_rng(13)
    u, v = rng.standard_normal((2, 4200)) * np.exp(rng.uniform(-30.0, 30.0, (2, 4200)))
    want = np.arctan2(u, v)
    for length in range(1, 71):
        for i in range(0, len(u) - length, 997):
            assert np.array_equal(np.arctan2(u[i : i + length], v[i : i + length]), want[i : i + length]), (length, i)
    for stride in (2, 3, 7):
        assert np.array_equal(np.arctan2(u[::stride], v[::stride]), want[::stride]), stride
    for rows in (2, 6, 60):
        grid = (rows, len(u) // rows)
        assert np.array_equal(np.arctan2(u.reshape(grid).T, v.reshape(grid).T), want.reshape(grid).T), rows
        assert np.array_equal(np.arctan2(u.reshape(grid), v.reshape(grid)), want.reshape(grid)), rows
    assert [np.arctan2(a, b) for a, b in zip(u[:500].tolist(), v[:500].tolist())] == want[:500].tolist()


def test_angles_match_a_per_cell_math_atan2_sweep():
    # the reference is the per-cell loop that read each angle by
    # math.atan2; np.arctan2 may round each angle one ulp apart from it
    rng = np.random.default_rng(14)
    cells = 300
    y = rng.standard_normal((cells, 2))
    w = y * np.stack([rng.uniform(0.5, 2.0, cells), np.ones(cells)], axis=1)
    w /= np.abs(y).sum(axis=1)[:, None]
    adv = rng.uniform(0.0, 3.0, cells)
    theta, a = 1.0, 0.3
    for (y0, y1), (w0, w1), e in zip(y.tolist(), w.tolist(), adv.tolist()):
        a1 = math.atan2(y0, y1)
        d = a1 - a - e
        a = math.atan2(w0, w1)
        theta += e + d - 2.0 * math.pi * round(d / (2.0 * math.pi)) + a - a1
    angles, steps = propagator._angles(np.array([y[:, 0], w[:, 0]]), np.array([y[:, 1], w[:, 1]]), adv, ((0, 1.0, 0.3),))
    got, last = np.add.accumulate(steps)[-1], angles[-1]
    assert abs(got - theta) <= 4.0 * cells * np.finfo(float).eps * theta
    assert abs(last - a) <= 2.0 * np.finfo(float).eps * math.pi


def test_rounds_sweep_in_blocks_of_bounded_lane_cells(monkeypatch):
    # a 31-lane round on (1-x)/x (140 cells): blocks of at most _BLOCK
    # lane-cells, the coarse cells beside the first n halves, then the other
    # n halves, and a round below _MIN_LANES lanes one lane at a time
    p = _conjecture("(1-x)/x", -1.0, 1.0)
    lams = np.geomspace(300.0, 450.0, 31).tolist()
    want = [phase(p, lam, rtol=1e-11) for lam in lams]
    n = p.cell_meshes[-11].cells
    blocks = []
    sweep_lanes = propagator._sweep_lanes
    monkeypatch.setattr(propagator, "_sweep_lanes", lambda m11, *rest: blocks.append(m11.shape) or sweep_lanes(m11, *rest))
    assert oscillation._phases(p, lams, 1e-11) == want
    assert all(rows * cols <= propagator._BLOCK for rows, cols in blocks)
    beside = [cols for rows, cols in blocks if rows == 62]
    alone = [cols for rows, cols in blocks if rows == 31]
    assert len(beside) + len(alone) == len(blocks) and sum(beside) == sum(alone) == n
    assert blocks[: len(beside)] == [(62, cols) for cols in beside]
    assert max(beside) == propagator._BLOCK // 62 and max(alone) == propagator._BLOCK // 31
    blocks.clear()
    few = propagator._MIN_LANES - 1
    assert oscillation._phases(p, lams[:few], 1e-11) == want[:few]
    assert blocks == []


def test_batched_transfer_keeps_each_calls_bits(monkeypatch):
    # a cell gets the same bits in its call, in a run of calls and in a call
    # of its own, also where it is its call's only near cell (|x| < 25)
    # (c1, c2 this large let a one-ulp change in the series reach the result)
    rng = np.random.default_rng(11)
    cells, calls = 6, 100
    x = rng.uniform(30.0, 900.0, (calls, cells))
    for i in range(calls):
        near = rng.choice(cells, size=[0, 1, 1, 2, cells][i % 5], replace=False)
        x[i, near] = rng.uniform(-20.0, 24.0, len(near))
    h = rng.uniform(0.05, 1.0, cells)
    ubar, *c = (rng.uniform(-50.0, 50.0, cells) for _ in range(3))
    c += [rng.uniform(-50.0, 50.0, cells) for _ in range(2)]  # c3, c4
    lam2 = x / h**2 - ubar
    monkeypatch.setattr(propagator, "_CHUNK", 4 * cells)  # runs of four calls
    got = _kernel(lam2, h, ubar, *c, batched=True)
    for i in range(calls):
        want = _kernel(lam2[i], h, ubar, *c)
        assert all(np.array_equal(g, w) for g, w in zip(got[:, i], want)), i
        for j in range(cells):
            one = _kernel(lam2[i, j : j + 1], *(q[j : j + 1] for q in (h, ubar, *c)))
            assert all(np.array_equal(g[j : j + 1], w) for g, w in zip(got[:, i], one)), (i, j)


def test_block_keeps_each_lanes_bits():
    # a block of cells is a piece of each lane's call, and its near cells
    # keep their bits whether the block holds one of them or several
    # (c1, c2 this large let a one-ulp change in the series reach the result)
    rng = np.random.default_rng(12)
    cells, lanes = 24, 8
    lam2 = 1e5 * np.arange(1.0, lanes + 1.0)[:, None]  # one coupling per lane
    h = rng.uniform(0.05, 1.0, cells)
    ubar, *c = (rng.uniform(-50.0, 50.0, cells) for _ in range(3))
    # lane i is near (|x| < 25) on cells of its own only: 1, 2 or 3 of them
    owner = np.repeat(np.arange(lanes), [1, 2, 3] * 2 + [1, 2])
    cell = rng.permutation(cells)[: len(owner)]
    ubar[cell] = rng.uniform(-20.0, 15.0, len(cell)) / h[cell] ** 2 - lam2[owner, 0]
    c += [rng.uniform(-50.0, 50.0, cells) for _ in range(2)]  # c3, c4
    near = np.abs((lam2 + ubar) * h**2) < propagator._SECOND_ORDER_X[1]
    assert near.sum(axis=0).max() == 1 and near.sum(axis=1).tolist() == [1, 2, 3] * 2 + [1, 2]
    want = [_kernel(lam2[i, 0], h, ubar, *c) for i in range(lanes)]
    for width in (1, 5, cells):
        for k in range(0, cells, width):
            block = slice(k, k + width)
            got = _kernel(lam2, *(q[block] for q in (h, ubar, *c)), batched=True)
            for i in range(lanes):
                assert all(np.array_equal(g, w[block]) for g, w in zip(got[:, i], want[i])), (width, k, i)


def test_near_series_keeps_each_rows_bits(monkeypatch):
    # the series' product runs on at most the rows OpenBLAS's small-matrix
    # kernel takes at a time, a last row alone beside the one before it:
    # every element has the bits of the same x in a call of two, whatever
    # the call's length, also where a call of one product would take the
    # blocked kernel, and with the rows per product derived from the
    # operand's size
    rng = np.random.default_rng(15)
    x = rng.uniform(-25.0, 25.0, 5001)
    mono = rng.uniform(-1.0, 1.0, (6, 5001))
    pairs = [propagator._near_series(x[i : i + 2], mono[:, i : i + 2]) for i in range(0, 5000, 2)]
    want = [np.concatenate([pair[k] for pair in pairs], axis=-1) for k in (0, 1)]
    size = propagator._series_operand().size
    for limit in (4 * size, propagator._SMALL_GEMM):
        monkeypatch.setattr(propagator, "_SMALL_GEMM", limit)
        for m in (9, 4097, 2 * (limit // size) + 1, 5000):
            got = propagator._near_series(x[:m], mono[:, :m])
            assert all(np.array_equal(g, w[..., :m]) for g, w in zip(got, want)), (limit, m)
        # rows of lanes on the same cells, as the kernel passes them
        got = propagator._near_series(x[:4000].reshape(40, 100), mono[:, None, :100])
        lanes = [propagator._near_series(x[i : i + 100], mono[:, :100]) for i in range(0, 4000, 100)]
        for g, w in zip(got, zip(*lanes)):
            assert np.array_equal(g, np.stack(w, axis=1)), limit
    one = propagator._near_series(x[:1], mono[:, :1])
    assert all(np.array_equal(g, w[..., :1]) for g, w in zip(one, want))


@pytest.mark.parametrize("cells", [1, 2, 16])
def test_batched_mesh_test_matches_one_transfer_per_frequency(cells):
    # build_mesh's refinement test, batched over lambda = 0 and omega h = 1,
    # 2, 4 and 8 (five frequency rows, more than the build's three), against
    # a _transfer call for each frequency and part
    p = Potential.from_formula("1.2+1.0*sin(3*x)", 0.0, 4.0)
    edges = np.linspace(0.0, 4.0, cells + 1)
    whole, halves = propagator._cells(p, edges[:-1], edges[1:])
    h, ubar = whole[0], whole[1]
    zs = (1.0, 2.0, 4.0, 8.0)
    lam2s = [0.0] + [np.maximum((z / h) ** 2 - ubar, 0.0) for z in zs]
    sigs = [np.maximum(math.pi / h.sum(), np.sqrt(np.abs(ubar)))] + [z / h for z in zs]
    got = propagator._mismatches(whole, halves, lam2s, sigs)
    for k, (lam2, sig) in enumerate(zip(lam2s, sigs)):
        t11, t12, t21, t22, _ = _kernel(lam2, *whole)
        l11, l12, l21, l22, _ = _kernel(lam2, *(q[0::2] for q in halves))
        r11, r12, r21, r22, _ = _kernel(lam2, *(q[1::2] for q in halves))
        want = np.maximum.reduce([
            np.abs(r11 * l11 + r12 * l21 - t11),
            np.abs(r11 * l12 + r12 * l22 - t12) * sig,
            np.abs(r21 * l11 + r22 * l21 - t21) / sig,
            np.abs(r21 * l12 + r22 * l22 - t22),
        ])
        assert np.array_equal(got[k], want), k


def _reference_etas(x):
    # the eta functions as they were before the batched kernel
    ax = np.abs(x)
    r = np.sqrt(ax)
    with np.errstate(all="ignore"):
        if x.min() > 0.0:
            em1, e0 = np.cos(r), np.sin(r) / r
        else:
            pos = x > 0.0
            em1 = np.where(pos, np.cos(r), np.cosh(r))
            e0 = np.where(pos, np.sin(r), np.sinh(r)) / r
        e1 = (e0 - em1) / x
        e2 = (3.0 * e1 - e0) / x
    small = ax < propagator._SMALL_X
    if small.any():
        y = -0.5 * x[small]
        acc = propagator._ETA_SERIES[:, -1] * np.ones_like(y)
        for c in propagator._ETA_SERIES.transpose(1, 0, 2)[-2::-1]:
            acc = acc * y + c
        e0[small], e1[small], e2[small] = acc[:3]
    return em1, e0, e1, e2


@functools.cache
def _former_second_order_table(terms=16):
    # the unit cell's series second order in (c1, c2) only, as the kernel
    # without c3 and c4 took it: row k holds the x**k coefficients of the
    # entries 11, 12, 21, 22, each times c1^2, c1 c2 and c2^2
    du = ((-1.0, 1.0), (2.0, -6.0), (0.0, 6.0))  # t^j coefficients of P1 and P2 in t
    n_max = 2 * terms + 12
    a = np.zeros((n_max + 2, 2, terms, 6))  # t^n coefficient, start, x power, monomial 1, c1, c2, c1^2, c1 c2, c2^2
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


def _reference_transfer(lam2, h, ubar, c1, c2):
    # the cell transfer as it was before the batched kernel: the lambda-free
    # factors per lane-cell, the series' powers from np.vander
    h2 = h * h
    x = (lam2 + ubar) * h2
    em1, e0, e1, e2 = _reference_etas(x)
    k1 = 0.5 * c1 * h2 * e1
    k2 = 0.5 * c2 * h2 * e2
    t = [em1 + k1, h * (e0 + k2), x * (k2 - e0) / h, em1 - k1]
    full, gone = propagator._SECOND_ORDER_X
    ax = np.abs(x)
    near = ax < gone
    if near.any():
        part = slice(None) if near.all() else near
        xn, axn, hn = x[part], ax[part], h[part]
        a, b = c1[part] * h2[part], c2[part] * h2[part]
        table = _former_second_order_table()
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


def _reference_transfers(lam2, h, ubar, c1, c2, chunk=1024):
    # the rows tiled into one 1-D call per run of whole rows
    rows, cells = len(lam2), len(h)
    out = np.empty((5, rows, cells))
    step = max(chunk // cells, 1)
    for i in range(0, rows, step):
        k = min(step, rows - i)
        run = _reference_transfer(
            np.broadcast_to(lam2[i : i + k], (k, cells)).ravel(),
            *(np.tile(q, k) for q in (h, ubar, c1, c2)),
        )
        out[:, i : i + k] = np.reshape(run, (5, k, cells))
    return out


_X_RANGES = {
    "barrier": [(-60.0, -0.05), (0.05, 30.0)],
    "series": [(-0.05, 0.05)],
    "taper": [(16.0, 25.0), (-25.0, -16.0)],
    "far": [(25.0, 3000.0), (-200.0, -25.0)],
    "all_near": [(-25.0, 25.0), (-0.05, 0.05), (16.0, 25.0)],
    "one_near": [(25.0, 3000.0)],
}


@pytest.mark.parametrize("kind", sorted(_X_RANGES))
def test_transfer_matches_the_vander_and_tile_reference(kind):
    # at c3 = c4 = 0 the batched kernel keeps every bit of the per-lane-cell
    # kernel it replaced, which carried U's P1 and P2 moments only and took
    # the series second order in (c1, c2) alone, for lanes (rows, 1),
    # per-cell rows (rows, cells) as in the mesh build, 1-D per-cell calls
    # and one-value calls
    # (c1, c2 this large let a one-ulp change in the series reach the result)
    rng = np.random.default_rng(sorted(_X_RANGES).index(kind) + 21)
    cells, rows = 45, 7
    ranges = _X_RANGES[kind]
    pick = rng.integers(len(ranges), size=(rows, cells))
    x = np.choose(pick, [rng.uniform(lo, hi, (rows, cells)) for lo, hi in ranges])
    if kind == "one_near":
        x[0, rng.integers(cells)] = rng.uniform(-24.0, 24.0)
    h = rng.uniform(0.05, 1.0, cells)
    ubar, c1, c2 = (rng.uniform(-50.0, 50.0, cells) for _ in range(3))
    zero = np.zeros(cells)
    per_cell = x / h**2 - ubar
    # lanes: one lambda^2 per row, close enough that every cell keeps its kind
    base = rng.uniform(1e3, 1e4)
    lanes = base * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, (rows, 1)))
    lane_ubar = x[0] / h**2 - base
    for lam2, u in ((per_cell, ubar), (lanes, lane_ubar)):
        near = np.abs((lam2 + u) * h**2) < propagator._SECOND_ORDER_X[1]
        if kind == "all_near":
            assert near.all()
        if kind == "one_near":  # one near cell: one lane-cell of the rows, one cell of every lane
            assert near.sum() == (1 if lam2 is per_cell else rows) and near.any(axis=0).sum() == 1
        got = _kernel(lam2, h, u, c1, c2, zero, zero, batched=True)
        assert np.array_equal(got, _reference_transfers(lam2, h, u, c1, c2)), kind
    for i in range(rows):
        for lam2, u in ((per_cell[i], ubar), (float(lanes[i, 0]), lane_ubar)):
            got = _kernel(lam2, h, u, c1, c2, zero, zero)
            want = _reference_transfer(lam2, h, u, c1, c2)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (kind, i)


def _peak(run):
    """The traced peak bytes of one run."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_round_of_200_lanes_stays_small():
    # a round sweeps blocks of at most _BLOCK lane-cells and _transfer runs
    # in _CHUNK-cell pieces: 200 couplings on 2+sin(x)
    p = Potential.from_formula("2+sin(x)", 0.0, 3.0)
    phase(p, 1.0, rtol=1e-11)
    lams = np.linspace(1.0, 300.0, 200).tolist()
    assert _peak(lambda: oscillation._phases(p, lams, 1e-11)) <= 1_900_000


def test_one_round_of_100_lanes_on_a_long_mesh_stays_small():
    # the blocks bound the memory whatever the mesh: the bulk of 100
    # couplings on (1-x)/x, 420 swept cells (the slivers run untraced,
    # before the round)
    p = _conjecture("(1-x)/x", -1.0, 1.0)
    lams = np.geomspace(50.0, 2000.0, 100).tolist()
    x_l, x_r = propagator.bulk_interval(p)
    length = propagator.bulk_mesh(p, 1e-11).length
    thetas_l = [end[0] for end in oscillation._ends(p, lams, 1e-11, x_l, x_r, length)]
    assert 3 * p.cell_meshes[-11].cells == 420
    assert _peak(lambda: propagator.propagate_lanes(p, lams, 1e-11, thetas_l)) <= 1_900_000


# -- the mesh build: batches that settle several levels, against bisection level by level


def _reference_build(p, decade, x_l, x_r):
    # build_mesh as it was before its batches settled several levels: one
    # _cells call and one test at lambda = 0 and every omega h in _Z_REF per level
    edges = np.linspace(x_l, x_r, propagator._INITIAL_CELLS + 1)
    lo, hi = edges[:-1], edges[1:]
    whole, halves = propagator._cells(p, lo, hi)
    scale = propagator._SHARE * 10.0**decade
    length = whole[0].sum()
    floor = scale * math.pi / length
    done = []
    for _ in range(propagator._MAX_DEPTH):
        h, ubar = whole[0], whole[1]
        allowed = np.maximum(floor * h, propagator._ROUNDING)
        sig0 = np.maximum(math.pi / length, np.sqrt(np.abs(ubar)))
        lam2s = [0.0] + [np.maximum((z / h) ** 2 - ubar, 0.0) for z in propagator._Z_REF]
        gaps = propagator._mismatches(whole, halves, lam2s, [sig0] + [z / h for z in propagator._Z_REF])
        ok = gaps[0] <= allowed
        for gap, z in zip(gaps[1:], propagator._Z_REF):
            ok &= gap <= np.maximum(scale * z, allowed)
        done.append((lo[ok], hi[ok], [q[ok] for q in whole], [q[np.repeat(ok, 2)] for q in halves]))
        if ok.all():
            break
        split = ~ok
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        if sum(len(part[0]) for part in done) + len(lo) > propagator._MAX_CELLS:
            break
        whole, halves = propagator._cells(p, lo, hi)
    else:
        raise ArithmeticError(f"cell mesh did not converge in {propagator._MAX_DEPTH} bisections near x={float(lo[0])!r}")
    if not ok.all():
        raise ArithmeticError(f"cell mesh needs more than {propagator._MAX_CELLS} cells")
    lo_all = np.concatenate([part[0] for part in done])
    order = np.argsort(lo_all, kind="stable")
    nodes = np.append(lo_all[order], x_r)
    whole = [np.concatenate([part[2][k] for part in done])[order] for k in range(len(whole))]
    pairs = np.stack([2 * order, 2 * order + 1], axis=1).ravel()
    halves = [np.concatenate([part[3][k] for part in done])[pairs] for k in range(len(halves))]
    return propagator._assemble(p, nodes, whole, halves)


_BUILDS = {
    "2+sin(x) [0, 3]": lambda: Potential.from_formula("2+sin(x)", 0.0, 3.0),
    "2+sin(x) [0, 30]": lambda: Potential.from_formula("2+sin(x)", 0.0, 30.0),
    "1.2+sin(3x) [0, 4]": lambda: Potential.from_formula("1.2+sin(3*x)", 0.0, 4.0),
    "exp(x)": lambda: Potential.from_formula("exp(x)", 0.0, 1.0),
    "(1+x)^(-4)": lambda: Potential.from_formula("(1+x)^(-4)", 0.0, 1.0),
    "1+x^2 [0, 2]": lambda: Potential.from_formula("1+x^2", 0.0, 2.0),
    "x": lambda: _conjecture("x", 1.0, 0.0),
    "sqrt(x)": lambda: _conjecture("sqrt(x)", 0.5, 0.0),
    "(1-x)/x": lambda: _conjecture("(1-x)/x", -1.0, 1.0),
    "x*(2-x) [0, 2]": lambda: Potential.from_formula(
        "x*(2-x)", 0.0, 2.0, regularity=Regularity.CONJECTURE, gamma_a=1.0, gamma_b=1.0
    ),
}
_MESH_FIELDS = ("nodes", "h", "ubar", "c1", "c2", "c3", "c4", "sqrt_vl", "beta_l", "sqrt_vr", "beta_r", "scale_r", "u_integral")


def _outcome(build, p, decade):
    """The mesh the build makes, or the type and message of what it raises."""
    try:
        return build(p, decade, *propagator.bulk_interval(p))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(_BUILDS))
def test_mesh_matches_bisection_level_by_level(name):
    # every field array for array, though a batch settles several levels
    for decade in (-10, -11, -12):
        p = _BUILDS[name]()
        interval = propagator.bulk_interval(p)
        got, want = propagator.build_mesh(p, decade, *interval), _reference_build(p, decade, *interval)
        for field in _MESH_FIELDS:
            g, w = getattr(got, field), getattr(want, field)
            assert np.array_equal(g, w) and np.asarray(g).dtype == np.asarray(w).dtype, (name, decade, field)


def test_mesh_tests_only_the_frequencies_that_decide_a_cell(monkeypatch):
    # omega h = 1 and 2 decide no cell: with them tested too, every mesh is
    # the same array for array (criterion 3's first draws beside _BUILDS)
    rng = random.Random(42)
    draws = []
    for _ in range(4):
        c0 = rng.uniform(1.0, 3.0)
        c1 = rng.uniform(0.0, c0 - 0.5)
        c2 = rng.uniform(0.5, 3.0)
        draws.append((f"{c0!r}+{c1!r}*sin({c2!r}*x)", rng.uniform(1.0, 5.0)))
    builds = [*_BUILDS.values(), *(functools.partial(Potential.from_formula, s, 0.0, b) for s, b in draws)]
    shipped = propagator._Z_REF
    for decade in (-10, -11, -12):
        for build in builds:
            meshes = []
            for zs in (shipped, (1.0, 2.0, 4.0, 8.0)):
                monkeypatch.setattr(propagator, "_Z_REF", zs)
                p = build()
                meshes.append(propagator.build_mesh(p, decade, *propagator.bulk_interval(p)))
            got, want = meshes
            assert all(np.array_equal(getattr(got, f), getattr(want, f)) for f in _MESH_FIELDS), (build().source, decade)


@pytest.mark.parametrize("name", ["2+sin(x) [0, 30]", "x", "(1-x)/x", "1.2+sin(3x) [0, 4]"])
def test_mesh_limits_raise_as_bisection_level_by_level(name, monkeypatch):
    # the cell and depth limits count the cells bisection would test, level
    # by level: the same error, message and x, or the same mesh
    outcomes = []
    limits = ((20, 40), (100, 40), (300, 40), (50_000, 2), (50_000, 3), (50_000, 5), (50_000, 9), (60, 4), (400, 6))
    for cells, depth in limits:
        monkeypatch.setattr(propagator, "_MAX_CELLS", cells)
        monkeypatch.setattr(propagator, "_MAX_DEPTH", depth)
        got = _outcome(propagator.build_mesh, _BUILDS[name](), -11)
        want = _outcome(_reference_build, _BUILDS[name](), -11)
        if isinstance(want, propagator.CellMesh):
            assert all(np.array_equal(getattr(got, f), getattr(want, f)) for f in _MESH_FIELDS), (cells, depth)
        else:
            assert got == want, (cells, depth)
        outcomes.append(want if isinstance(want, tuple) else "mesh")
    assert any("needs more than" in str(o) for o in outcomes) and any("did not converge" in str(o) for o in outcomes)


def test_mesh_guesses_under_a_narrow_dip_stay_within_the_cell_limit(monkeypatch):
    # below a narrow feature the gaps stay huge level after level while only
    # about one cell per level fails: the guessed levels must not outgrow
    # the cell limit, and the outcome is bisection's
    cells = propagator._cells
    limit = {}

    def bounded(p, lo, hi):
        assert len(lo) <= 4 * limit["cells"], len(lo)
        return cells(p, lo, hi)

    monkeypatch.setattr(propagator, "_cells", bounded)
    for source in ("2+sin(x)-1.9/(1+((x-1.37)/0.00002)^2)", "2+sin(x)+50/(1+((x-1.37)/0.000001)^2)"):
        for limit["cells"] in (60, 200, 2000):
            monkeypatch.setattr(propagator, "_MAX_CELLS", limit["cells"])
            for decade in (-10, -12):
                builds = (propagator.build_mesh, _reference_build)
                got, want = (_outcome(build, Potential.from_formula(source, 0.0, 3.0), decade) for build in builds)
                if isinstance(want, propagator.CellMesh):
                    assert all(np.array_equal(getattr(got, f), getattr(want, f)) for f in _MESH_FIELDS)
                else:
                    assert got == want, (source, limit, decade)


def test_mesh_domain_error_is_raised_as_bisection_level_by_level():
    # V falls below its floor only in a narrow dip that the first four
    # levels' nodes miss: the batches, which test cells out of level order,
    # raise the EvalDomainError bisection raises, with its message and point
    for source in ("2+sin(x)-3.5/(1+((x-1.37)/0.00002)^2)", "2+sin(x)-3.5/(1+((x-1.33)/0.0002)^2)"):
        for decade in (-10, -11):
            builds = (propagator.build_mesh, _reference_build)
            got, want = (_outcome(build, Potential.from_formula(source, 0.0, 3.0), decade) for build in builds)
            assert want[0] is EvalDomainError and got == want, (source, decade)


def test_mesh_builds_take_no_rerun(monkeypatch):
    # the rerun without guesses is an error path: no build here gives way,
    # so a build calls _cells in no more batches than bisection has levels
    cells = propagator._cells
    calls = []

    def counted(p, lo, hi):
        calls.append(len(lo))
        return cells(p, lo, hi)

    monkeypatch.setattr(propagator, "_cells", counted)
    for name, build in sorted(_BUILDS.items()):
        for decade in (-10, -11, -12):
            interval = propagator.bulk_interval(build())
            calls.clear()
            propagator.build_mesh(build(), decade, *interval)
            batches = len(calls)
            calls.clear()
            _reference_build(build(), decade, *interval)
            assert batches <= len(calls), (name, decade, batches, len(calls))


def test_declared_lower_bound_floors_v_in_quadrature_and_phase():
    # one floor, half the declared c_lower, for D and for the phase's cells,
    # in either class: 1/(x(1-x)) has its minimum 4 at x = 1/2
    def p(c_lower):
        return Potential.from_formula(
            "1/(x*(1-x))", 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=-1.0, gamma_b=-1.0, c_lower=c_lower
        )

    with pytest.raises(QuadratureError) as d:
        integrate_sqrt_v(p(10.0), 0.0, 1.0)
    with pytest.raises(PhaseError) as ph:
        phase(p(10.0), 50.0)
    for exc in (d.value, ph.value):
        assert "(floor 5.0)" in str(exc) and "np.float64" not in str(exc)
    # a conjecture-class c_lower is declared, not validated
    assert "lower bound c_lower = 10.0" in str(d.value) and "validated" not in str(d.value)
    assert integrate_sqrt_v(p(3.0), 0.0, 1.0).value == pytest.approx(math.pi, rel=1e-10)
    assert phase(p(3.0), 50.0).count == 49
