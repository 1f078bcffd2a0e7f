"""The cell propagator: its pieces, its mesh and its contracts, on both classes."""

import math
import pickle
import tracemalloc

import mpmath
import numpy as np
import pytest

from sturmjumps import oscillation, propagator
from sturmjumps.oscillation import PhaseError, phase
from sturmjumps.potential import Potential, Regularity
from sturmjumps.quadrature import integrate_sqrt_v


def test_eta_functions_on_both_sides_of_the_barrier():
    xs = [0.0, 1e-9, -1e-9, 1e-3, -1e-3, 0.049, 0.051, -0.051, 0.3, -0.3, 4.0, -4.0, 2500.0, -900.0]
    got = propagator._etas(np.array(xs))
    mpmath.mp.dps = 40
    for i, x in enumerate(xs):
        x = mpmath.mpf(x)
        if x == 0:
            want = [1, 1, mpmath.mpf(1) / 3, mpmath.mpf(1) / 15]
        else:
            r = mpmath.sqrt(abs(x))
            em1 = mpmath.cos(r) if x > 0 else mpmath.cosh(r)
            e0 = (mpmath.sin(r) if x > 0 else mpmath.sinh(r)) / r
            e1 = (e0 - em1) / x
            want = [em1, e0, e1, (3 * e1 - e0) / x]
        for k, w in enumerate(want):
            assert float(got[k][i]) == pytest.approx(float(w), rel=1e-12, abs=1e-15), (xs[i], k)


def _unit_cell_rk4(x, c1, c2, steps=4000):
    # g'' = -(x + c1 P1(2t-1) + c2 P2(2t-1)) g on [0, 1], both fundamental solutions
    def rhs(t, y):
        u = 2.0 * t - 1.0
        q = x + c1 * u + c2 * (1.5 * u * u - 0.5)
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


@pytest.mark.parametrize("x", [-9.0, -1.0, 0.0, 0.02, 0.7, 4.0, 15.0])
def test_cell_propagator_is_second_order_in_the_perturbation(x):
    # on |x| <= 16 the cell carries the (c1, c2) terms to second order, so
    # against an accurate solution only third-order terms are left
    c1, c2 = 0.05, -0.03
    want = _unit_cell_rk4(x, c1, c2)
    one = np.ones(1)
    got = propagator._transfer(x, one, 0.0 * one, c1 * one, c2 * one)
    got = np.array([[got[0][0], got[1][0]], [got[2][0], got[3][0]]])
    assert np.abs(got - want).max() <= 1e-7 * max(1.0, math.cosh(math.sqrt(max(-x, 0.0))))


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
    # estimate meets rtol, and the cached mesh stays as it was built
    monkeypatch.setattr(propagator, "_SHARE", 1e5)
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
# Dirichlet entry at a and the V(b) conversion at b
_PINNED = {
    ("2+sin(x)", 3.0): [
        (0.7, 1e-10, 3.4884129058912765), (30.0, 1e-10, 146.67004910845748),
        (1000.0, 1e-10, 4888.4513632717335), (0.7, 1e-12, 3.4884129058912565),
        (30.0, 1e-12, 146.67004910846393), (1000.0, 1e-12, 4888.451363271734),
    ],
    ("exp(x)", 1.0): [
        (0.7, 1e-10, 0.8404900320854238), (30.0, 1e-10, 38.74007529891223),
        (1000.0, 1e-10, 1297.4564106285786), (0.7, 1e-12, 0.8404900320854309),
        (30.0, 1e-12, 38.74007529891262), (1000.0, 1e-12, 1297.4564106285784),
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
        return p, np.geomspace(40.0, 400.0, 85), 1e-11
    if name == "refine":
        # a mesh too coarse for its decade: some lanes miss rtol and are refined
        monkeypatch.setattr(propagator, "_SHARE", 300.0)
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


def test_rounds_sweep_in_blocks_of_bounded_lane_cells(monkeypatch):
    # a 31-lane round on x (265 cells): blocks of at most _BLOCK lane-cells,
    # the coarse cells beside the first n halves, then the other n halves,
    # and a round below _MIN_LANES lanes one lane at a time
    p = _conjecture("x", 1.0, 0.0)
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
    ubar, c1, c2 = (rng.uniform(-50.0, 50.0, cells) for _ in range(3))
    lam2 = x / h**2 - ubar
    monkeypatch.setattr(propagator, "_CHUNK", 4 * cells)  # runs of four calls
    got = propagator._transfers(lam2, h, ubar, c1, c2)
    for i in range(calls):
        want = propagator._transfer(lam2[i], h, ubar, c1, c2)
        assert all(np.array_equal(g, w) for g, w in zip(got[:, i], want)), i
        for j in range(cells):
            one = propagator._transfer(lam2[i, j : j + 1], *(q[j : j + 1] for q in (h, ubar, c1, c2)))
            assert all(np.array_equal(g[j : j + 1], w) for g, w in zip(got[:, i], one)), (i, j)


def test_block_keeps_each_lanes_bits():
    # a block of cells is a piece of each lane's call, and its near cells
    # keep their bits whether the block holds one of them or several
    # (c1, c2 this large let a one-ulp change in the series reach the result)
    rng = np.random.default_rng(12)
    cells, lanes = 24, 8
    lam2 = 1e5 * np.arange(1.0, lanes + 1.0)[:, None]  # one coupling per lane
    h = rng.uniform(0.05, 1.0, cells)
    ubar, c1, c2 = (rng.uniform(-50.0, 50.0, cells) for _ in range(3))
    # lane i is near (|x| < 25) on cells of its own only: 1, 2 or 3 of them
    owner = np.repeat(np.arange(lanes), [1, 2, 3] * 2 + [1, 2])
    cell = rng.permutation(cells)[: len(owner)]
    ubar[cell] = rng.uniform(-20.0, 15.0, len(cell)) / h[cell] ** 2 - lam2[owner, 0]
    near = np.abs((lam2 + ubar) * h**2) < propagator._SECOND_ORDER_X[1]
    assert near.sum(axis=0).max() == 1 and near.sum(axis=1).tolist() == [1, 2, 3] * 2 + [1, 2]
    want = [propagator._transfer(lam2[i, 0], h, ubar, c1, c2) for i in range(lanes)]
    for width in (1, 5, cells):
        for k in range(0, cells, width):
            block = slice(k, k + width)
            got = propagator._transfers(lam2, *(q[block] for q in (h, ubar, c1, c2)))
            for i in range(lanes):
                assert all(np.array_equal(g, w[block]) for g, w in zip(got[:, i], want[i])), (width, k, i)


@pytest.mark.parametrize("cells", [1, 2, 16])
def test_batched_mesh_test_matches_one_transfer_per_frequency(cells):
    # build_mesh's refinement test, batched over the five reference
    # frequencies, against a _transfer call for each frequency and part
    p = Potential.from_formula("1.2+1.0*sin(3*x)", 0.0, 4.0)
    edges = np.linspace(0.0, 4.0, cells + 1)
    whole, halves = propagator._cells(p, edges[:-1], edges[1:])
    h, ubar = whole[0], whole[1]
    lam2s = [0.0] + [np.maximum((z / h) ** 2 - ubar, 0.0) for z in propagator._Z_REF]
    sigs = [np.maximum(math.pi / h.sum(), np.sqrt(np.abs(ubar)))] + [z / h for z in propagator._Z_REF]
    got = propagator._mismatches(whole, halves, lam2s, sigs)
    for k, (lam2, sig) in enumerate(zip(lam2s, sigs)):
        t11, t12, t21, t22, _ = propagator._transfer(lam2, *whole)
        l11, l12, l21, l22, _ = propagator._transfer(lam2, *(q[0::2] for q in halves))
        r11, r12, r21, r22, _ = propagator._transfer(lam2, *(q[1::2] for q in halves))
        want = np.maximum.reduce([
            np.abs(r11 * l11 + r12 * l21 - t11),
            np.abs(r11 * l12 + r12 * l22 - t12) * sig,
            np.abs(r21 * l11 + r22 * l21 - t21) / sig,
            np.abs(r21 * l12 + r22 * l22 - t22),
        ])
        assert np.array_equal(got[k], want), k


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
    # couplings on (1-x)/x, 1 743 swept cells (the slivers, untraced, run
    # lane by lane either way)
    p = _conjecture("(1-x)/x", -1.0, 1.0)
    lams = np.geomspace(50.0, 2000.0, 100).tolist()
    x_l, x_r = propagator.bulk_interval(p)
    length = propagator.bulk_mesh(p, 1e-11).length
    thetas_l = [oscillation._ends(p, lam, 1e-11, x_l, x_r, length)[0] for lam in lams]
    assert 3 * p.cell_meshes[-11].cells == 1743
    assert _peak(lambda: propagator.propagate_lanes(p, lams, 1e-11, thetas_l)) <= 1_900_000
