"""Locating the couplings lambda_n where the eigenvalue count jumps.

lambda_n is the smallest lambda with N(lambda) >= n, equivalently the
lambda at which the Dirichlet solution gains its n-th zero at x = b, i.e.
the root of f(lambda) = theta_b(lambda) - n*pi, with theta_b the matched
phase of ``oscillation.phase`` (theta(b) itself unless the right end is
singular).  theta_b is strictly increasing, and each root is found in
three stages:

* Start.  On the Liouville-Green scale the problem is -g'' - U g =
  lambda^2 g on (0, D), whose Dirichlet eigenvalues are
  ((n+kappa)*pi/D)^2 - Ubar + o(1), Ubar the mean of U over (0, D).
  The start is lambda0 = sqrt(((n+kappa)*pi/D)^2 - Ubar), with
  kappa = 0 for theorem-class potentials, and for conjecture-class ones
  kappa = endpoint_constant(gamma_a, gamma_b) and Ubar = 0 (U is
  unbounded there); (n+kappa)*pi/D when the radicand is not positive.
  The integral of U is the sum of h * Ubar over the coarse cells of the
  mesh the root's phase calls sweep (``bulk_mesh`` at rtol tol/10),
  formed once with the mesh (``CellMesh.u_integral``); a table reads
  kappa and Ubar once (``_start_terms``).
  That mesh is built before D is integrated, on both classes, so a mesh
  that cannot be built raises PhaseError, as the phase would.
  It depends on (p, n) alone, so a root never depends on which other
  roots were computed with it.
* Slope steps.  Since theta_b(lambda) ~ lambda*D (its slope at the
  roots of (1-x)/x is 0.86-1.23 D), lambda <- lambda - f/slope with the
  slope starting at D and then taken from the latest secant when that
  is positive.  A step that would take lambda to 0 or
  below is replaced by halving lambda; after three tries on the same
  side the step is doubled each time, so the sign change is reached.
* Illinois.  Once f changes sign, a safeguarded Illinois secant on the
  bracket finishes the root.

Any phase evaluation with |f| plus the phase's own error estimate at
most tol*n is accepted at once; when none is, BracketingError is raised.

The search is a generator (``_search``) that yields each lambda it wants
the phase at.  A chunk of roots (``_sequence_chunk``) runs its searches
in lockstep rounds, each round one batched phase evaluation
(``oscillation._phases``) of every unfinished root's next lambda, whose
bulk the propagator sweeps as lanes of one pass; ``find_jump`` is a chunk
of one root.  No lane's phase depends on the lanes beside it, so a
record, counters included, is the same whichever roots share its rounds.
That estimate is the cell propagator's |fine - coarse|, plus on the
conjecture class the end slivers' errors.
Each record carries e_n = lambda_n * D / pi - n, the deviation of the
jump from its leading prediction n*pi/D with D the full integral of
sqrt(V), the phase calls, the slivers' collocation cells (``rk_steps``)
and failed seed checks (``rk_rejected``), the propagator cells the root
took, and the accepted call's error estimate as its error bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .oscillation import _phase_error, _phases
from .potential import Potential, Regularity, endpoint_constant
from .propagator import bulk_mesh
from .quadrature import QuadratureError, integrate_sqrt_v

__all__ = ["JumpRecord", "BracketingError", "find_jump", "jump_sequence"]

_PI = math.pi
_MAX_EXPANSIONS = 60


class BracketingError(RuntimeError):
    pass


@dataclass(frozen=True)
class JumpRecord:
    n: int
    lambda_n: float
    residual: float
    e_n: float
    phase_calls: int = 0
    rk_steps: int = 0
    rk_rejected: int = 0
    cells: int = 0
    error_bar: float = 0.0


def _mesh(p: Potential, tol: float):
    """The roots' phase mesh, ``bulk_mesh`` at rtol tol/10: where V cannot be evaluated on it, PhaseError, as the phase raises."""
    try:
        return bulk_mesh(p, tol / 10.0)
    except (ArithmeticError, ValueError, QuadratureError) as exc:
        raise _phase_error(exc) from None


def _length(p: Potential, tol: float) -> float:
    """D, the integral of sqrt(V) over [a, b] (QuadratureError where it fails), once the roots' phase mesh is built (``_mesh``)."""
    _mesh(p, tol)
    return integrate_sqrt_v(p, p.a, p.b).value


def _start_terms(p: Potential, d: float, tol: float) -> tuple:
    """(kappa, Ubar) of the starts sqrt(((n + kappa)*pi/D)^2 - Ubar): one pair per table."""
    if p.regularity is Regularity.THEOREM:
        return 0, _mesh(p, tol).u_integral / d
    return endpoint_constant(p.gamma_a, p.gamma_b), 0.0


def _search(p: Potential, n: int, tol: float, d_value: Optional[float], start: Optional[tuple]):
    """``find_jump``'s search as a generator.

    It yields each lambda it wants the phase at, at rtol = tol/10, and is
    sent that phase's PhaseResult; it returns the JumpRecord, or raises
    BracketingError.  D and ``start``, the pair ``_start_terms`` gives,
    are formed here when not given.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    d = d_value if d_value is not None else _length(p, tol)
    kappa, ubar = start if start is not None else _start_terms(p, d, tol)
    target = n * _PI
    tol_theta = tol * n
    calls = steps = rejected = cells = 0
    bars = {}  # lambda -> the phase's error estimate there

    def residual(lam, res):
        nonlocal calls, steps, rejected, cells
        calls += 1
        steps += res.steps
        rejected += res.rejected_steps
        cells += res.cells
        bars[lam] = res.error_estimate
        return res.theta_b - target

    def bound(lam, f):
        return abs(f) + bars[lam]

    def record(lam, f):
        return JumpRecord(n, lam, abs(f), lam * d / _PI - n, calls, steps, rejected, cells, bars[lam])

    k = (n + kappa) * _PI / d
    lam0 = math.sqrt(k * k - ubar) if k * k > ubar else k
    lam = lam0
    f = residual(lam, (yield lam))
    slope, grow = d, 1.0
    for tries in range(_MAX_EXPANSIONS + 1):
        if bound(lam, f) <= tol_theta:
            return record(lam, f)
        if tries == _MAX_EXPANSIONS:
            raise BracketingError(f"no sign change from lambda={lam0!r} for n={n}")
        new = lam - grow * f / slope
        if not new > 0.0:
            new = 0.5 * lam
        f_new = residual(new, (yield new))
        if (f_new < 0.0) != (f < 0.0):
            break
        secant = (f_new - f) / (new - lam) if new != lam else 0.0
        if secant > 0.0:
            slope = secant
        if tries >= 2:
            grow *= 2.0
        lam, f = new, f_new
    lo, flo, hi, fhi = (lam, f, new, f_new) if f < 0.0 else (new, f_new, lam, f)

    best_lam, best_f = (lo, flo) if bound(lo, flo) < bound(hi, fhi) else (hi, fhi)
    side = 0  # Illinois bookkeeping: which endpoint moved last
    for _ in range(200):
        if bound(best_lam, best_f) <= tol_theta:
            break
        denom = fhi - flo
        mid = lo + (hi - lo) * (-flo / denom) if denom != 0.0 else 0.5 * (lo + hi)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        fmid = residual(mid, (yield mid))
        if bound(mid, fmid) < bound(best_lam, best_f):
            best_lam, best_f = mid, fmid
        if fmid < 0.0:
            lo, flo = mid, fmid
            if side == -1:
                fhi *= 0.5
            side = -1
        else:
            hi, fhi = mid, fmid
            if side == 1:
                flo *= 0.5
            side = 1
        if hi - lo <= 8.0 * 2.220446049250313e-16 * hi:
            break
    if bound(best_lam, best_f) > tol_theta:
        raise BracketingError(
            f"no root within tolerance for n={n}: best |theta_b - n*pi| = {abs(best_f)!r} "
            f"with error bar {bars[best_lam]!r} at lambda={best_lam!r} exceeds {tol_theta!r}"
        )
    return record(best_lam, best_f)


def find_jump(p: Potential, n: int, tol: float = 1e-10, d_value: Optional[float] = None) -> JumpRecord:
    """Solve theta_b(lambda) = n*pi for the n-th jump coupling: a chunk of one root.

    ``tol`` is relative in theta: the returned root satisfies
    |theta_b(lambda_n) - n*pi| + error_bar <= tol*n, where error_bar is
    the phase's own error estimate (the propagator's, plus the gaps of
    the conjecture class's end-sliver seed checks), and BracketingError
    is raised when no iterate does, or when _MAX_EXPANSIONS slope steps
    find no sign change.  The phase is computed with rtol = tol/10.
    """
    return _sequence_chunk((p, [n], tol, d_value, None))[0]


def _sequence_chunk(payload):
    """The records of every n in ns, their searches advanced in lockstep.

    Each round evaluates the phase of every unfinished root in one
    batched call; the phase is bit for bit the same in any batch.
    """
    p, ns, tol, d, start = payload
    searches = [_search(p, n, tol, d, start) for n in ns]
    records = [None] * len(ns)
    pending = [(i, next(search)) for i, search in enumerate(searches)]
    while pending:
        results = _phases(p, [lam for _, lam in pending], tol / 10.0)
        running = []
        for (i, _), res in zip(pending, results):
            try:
                running.append((i, searches[i].send(res)))
            except StopIteration as stop:
                records[i] = stop.value
        pending = running
    return records


def jump_sequence(
    p: Potential,
    n_min: int,
    n_max: int,
    tol: float = 1e-10,
    workers: int = 1,
) -> list[JumpRecord]:
    """Jump records for every n in [n_min, n_max], strictly increasing in lambda.

    Every root starts from its own (p, n) prediction and carries no state
    from its neighbours, so the records do not depend on ``workers``.
    With workers > 1 the n-range is split into contiguous chunks
    evaluated in separate processes and merged in order.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    d = _length(p, tol)
    start = _start_terms(p, d, tol)
    ns = list(range(n_min, n_max + 1))
    if workers <= 1 or len(ns) < 4:
        records = _sequence_chunk((p, ns, tol, d, start))
    else:
        workers = min(workers, len(ns))
        size = (len(ns) + workers - 1) // workers
        chunks = [ns[i : i + size] for i in range(0, len(ns), size)]
        payloads = [(p, chunk, tol, d, start) for chunk in chunks]
        # imported here: the pool's import costs memory that one worker never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_sequence_chunk, payloads))
        records = [rec for part in parts for rec in part]
    records.sort(key=lambda r: r.n)
    for prev, cur in zip(records, records[1:]):
        if not cur.lambda_n > prev.lambda_n:
            raise RuntimeError(
                f"jump sequence not increasing: lambda_{prev.n}={prev.lambda_n!r} "
                f"vs lambda_{cur.n}={cur.lambda_n!r}"
            )
    return records
