import numpy as np
import pytest
from hypothesis import given, strategies as st

from sturmjumps.oscillation import count_negative
from sturmjumps.potential import Potential
from sturmjumps.spectra_oracle import (
    Tridiag,
    ZeroPivotError,
    assemble,
    count_by_inertia,
    count_matrix,
)


def test_assemble_reference_matrix():
    p = Potential.from_formula("1", 0.0, 4.0)
    t = assemble(p, 0.0, 3)
    assert t.h == 1.0
    assert np.allclose(t.diag, [2.0, 2.0, 2.0])
    assert np.allclose(t.off, [-1.0, -1.0])


def test_inertia_single_elements():
    assert count_by_inertia(Tridiag(np.array([-1.0]), np.array([]), 1.0, 1)) == 1
    assert count_by_inertia(Tridiag(np.array([2.0, 2.0]), np.array([-1.0]), 1.0, 2)) == 0


def test_inertia_matches_numpy_eigenvalues():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(2, 30))
        diag = rng.normal(size=m)
        off = rng.normal(size=m - 1)
        t = Tridiag(diag, off, 1.0, m)
        mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        expected = int(np.sum(np.linalg.eigvalsh(mat) < 0.0))
        try:
            assert count_by_inertia(t) == expected
        except ZeroPivotError:
            pass


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_inertia_invariant_under_positive_scaling(scale):
    diag = np.array([1.0, -2.0, 0.5, -0.25, 3.0])
    off = np.array([0.7, -0.3, 0.9, 0.1])
    base = count_by_inertia(Tridiag(diag, off, 1.0, 5))
    scaled = count_by_inertia(Tridiag(scale * diag, scale * off, 1.0, 5))
    assert base == scaled


def test_zero_pivot_raises():
    t = Tridiag(np.array([1.0, 1.0]), np.array([1.0]), 1.0, 2)  # second pivot 1 - 1/1 = 0
    with pytest.raises(ZeroPivotError):
        count_by_inertia(t)


def test_constant_potential_count(v_one):
    import math

    t = assemble(v_one, 2.5, 9999)
    assert t.h == pytest.approx(math.pi / 10000.0)
    assert len(t.diag) == 9999 and len(t.off) == 9998
    assert count_by_inertia(t) == 2


def test_count_matrix_agrees_with_phase(v_sin):
    assert count_matrix(v_sin, 40.0, 20000) == count_negative(v_sin, 40.0)


def test_mesh_convergence_away_from_jumps(v_sin):
    for lam in (7.3, 21.9, 33.4):
        assert count_matrix(v_sin, lam, 5000) == count_matrix(v_sin, lam, 10000)


def test_conjecture_class_interior_nodes_only(v_rational):
    # endpoint x=0 would divide by zero; interior assembly must succeed
    t = assemble(v_rational, 10.0, 500)
    assert np.all(np.isfinite(t.diag))


def test_mesh_size_guard(v_one):
    with pytest.raises(ValueError):
        count_matrix(v_one, 1.0, 50)


def _one_pass_inertia(t):
    # the recurrence in one pass over whole-matrix lists: the reference for the sliced one
    diag, off2 = t.diag.tolist(), (t.off * t.off).tolist()
    d, neg = diag[0], 0
    for i in range(1, t.m):
        neg += d < 0.0
        d = diag[i] - off2[i - 1] / d
    return neg + (d < 0.0)


@pytest.mark.parametrize("m", [4095, 4096, 4097, 8193, 20000])
def test_sliced_inertia_matches_one_pass_at_slice_boundaries(m):
    rng = np.random.default_rng(m)
    p = Potential.from_formula("2+sin(x)", 0.0, 3.0)
    matrices = [assemble(p, lam, m) for lam in (5.3, 37.1)]
    matrices += [Tridiag(rng.normal(size=m), rng.normal(size=m - 1), 1.0, m) for _ in range(4)]
    for t in matrices:
        assert count_by_inertia(t) == _one_pass_inertia(t)


def test_zero_pivot_row_across_slices():
    diag = np.ones(8193)
    diag[4096] = 0.0
    with pytest.raises(ZeroPivotError, match="row 4096"):
        count_by_inertia(Tridiag(diag, np.zeros(8192), 1.0, 8193))
