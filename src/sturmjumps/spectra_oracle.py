"""Brute-force oracle: finite differences plus tridiagonal inertia.

Discretizing -d^2/dx^2 - lambda^2 V on interior nodes with Dirichlet rows
dropped gives a symmetric tridiagonal matrix; by Sylvester's law of
inertia the number of negative pivots of its LDL^T factorization equals
the number of negative eigenvalues.  This path shares nothing with the
phase integration and is used to cross-validate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import EvalDomainError
from .potential import Potential

__all__ = ["Tridiag", "ZeroPivotError", "assemble", "count_by_inertia", "count_matrix"]


class ZeroPivotError(ArithmeticError):
    pass


@dataclass(frozen=True)
class Tridiag:
    diag: np.ndarray
    off: np.ndarray
    h: float
    m: int


def assemble(p: Potential, lam: float, m: int) -> Tridiag:
    """Second-order central-difference matrix on m interior nodes.

    diag[i] = 2/h^2 - lam^2 V(a + (i+1) h), off[i] = -1/h^2.  Endpoints
    are never evaluated, so singular conjecture-class edges are safe.
    """
    if m < 1:
        raise ValueError("mesh needs at least one interior point")
    h = (p.b - p.a) / (m + 1)
    xs = p.a + h * np.arange(1, m + 1)
    with np.errstate(all="ignore"):
        v = np.asarray(p.value_fn_np(xs), dtype=float)
    if v.shape == ():
        v = np.full(m, float(v))
    if not np.all(np.isfinite(v)):
        bad = xs[~np.isfinite(v)][0]
        raise EvalDomainError("potential evaluation failed on the mesh", p.source, float(bad))
    diag = 2.0 / (h * h) - lam * lam * v
    off = np.full(m - 1, -1.0 / (h * h))
    return Tridiag(diag, off, h, m)


_CHUNK = 4096  # rows per Python-list slice of the recurrence


def count_by_inertia(t: Tridiag) -> int:
    """Number of negative pivots of the LDL^T recurrence (= negative eigenvalues).

    Pivot i is d_i = diag[i] - off[i-1]^2 / d_(i-1), run over Python floats
    in slices of _CHUNK rows, so no list of the whole matrix is made.
    """
    neg = 0
    d = 1.0  # row 0 has no coupling above it: d_0 = diag[0] - 0/1
    for lo in range(0, t.m, _CHUNK):
        hi = min(lo + _CHUNK, t.m)
        coupling = t.off[max(lo - 1, 0) : hi - 1]
        off2 = ([0.0] if lo == 0 else []) + (coupling * coupling).tolist()
        for i, (a, c) in enumerate(zip(t.diag[lo:hi].tolist(), off2), start=lo):
            d = a - c / d
            if d == 0.0:
                raise ZeroPivotError(f"exact zero pivot at row {i}")
            if d < 0.0:
                neg += 1
    return neg


def count_matrix(p: Potential, lam: float, m: int = 20000) -> int:
    """Oracle count of negative eigenvalues at coupling lam on an m-point mesh."""
    if m < 100:
        raise ValueError("oracle mesh needs at least 100 interior points")
    try:
        return count_by_inertia(assemble(p, lam, m))
    except ZeroPivotError:
        # nudge the coupling off the exact-singularity and retry once
        return count_by_inertia(assemble(p, lam * (1.0 + 1e-12), m))
