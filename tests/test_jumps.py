import math

import pytest

from sturmjumps.jumps import BracketingError, JumpRecord, find_jump, jump_sequence
from sturmjumps.oscillation import count_negative
from sturmjumps.potential import Potential
from sturmjumps.spectra_oracle import count_matrix


def test_constant_potential_jump(v_one):
    rec = find_jump(v_one, 7)
    assert abs(rec.lambda_n - 7.0) < 1e-8
    assert rec.residual <= 1e-10 * 7


def test_scaled_constant_jump(v_four):
    # lambda_n = n*pi / ((b-a) sqrt(c))
    rec = find_jump(v_four, 3)
    assert abs(rec.lambda_n - 3.0 * math.pi / 2.0) < 1e-8


def test_first_jump_vs_matrix_bisection_oracle(v_linear):
    rec = find_jump(v_linear, 1)

    # oracle: bisect the smallest coupling whose inertia count reaches 1
    lo, hi = 1.0, 10.0
    assert count_matrix(v_linear, lo, 40000) == 0
    assert count_matrix(v_linear, hi, 40000) >= 1
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if count_matrix(v_linear, mid, 40000) >= 1:
            hi = mid
        else:
            lo = mid
    assert rec.lambda_n == pytest.approx(hi, rel=1e-4)


def test_sequence_constant_potential(v_one):
    records = jump_sequence(v_one, 1, 20)
    assert [r.n for r in records] == list(range(1, 21))
    assert all(abs(r.e_n) < 1e-8 for r in records)
    assert all(b.lambda_n > a.lambda_n for a, b in zip(records, records[1:]))


def test_sequence_matches_individual_roots(v_sin):
    # every root starts from its own (p, n) prediction: a sequence and a
    # bare call give the same record, counters included
    records = jump_sequence(v_sin, 3, 6)
    for rec in records:
        assert rec == find_jump(v_sin, rec.n)


def test_counting_consistency_around_jumps(v_sin):
    for rec in jump_sequence(v_sin, 4, 6):
        eps = 1e-6 * rec.lambda_n
        assert count_negative(v_sin, rec.lambda_n - eps) == rec.n - 1
        assert count_negative(v_sin, rec.lambda_n + eps) == rec.n


def test_scaling_law():
    base = Potential.from_formula("2+sin(x)", 0.0, 3.0)
    scaled = Potential.from_formula("4*(2+sin(x))", 0.0, 3.0)
    for n in (2, 9):
        lam = find_jump(base, n).lambda_n
        lam_scaled = find_jump(scaled, n).lambda_n
        assert lam_scaled == pytest.approx(lam / 2.0, rel=1e-8)


def test_parallel_sequence_matches_row_count(v_one):
    records = jump_sequence(v_one, 1, 8, workers=2)
    assert [r.n for r in records] == list(range(1, 9))
    assert all(abs(r.e_n) < 1e-8 for r in records)


def test_record_fields(v_sin):
    rec = find_jump(v_sin, 5)
    assert isinstance(rec, JumpRecord)
    assert rec.e_n == pytest.approx(rec.lambda_n * _phase_length(v_sin) / math.pi - 5, abs=1e-9)


def _phase_length(p):
    from sturmjumps.quadrature import integrate_sqrt_v

    return integrate_sqrt_v(p, p.a, p.b, 1e-12).value


def test_invalid_ranges(v_one):
    with pytest.raises(ValueError):
        find_jump(v_one, 0)
    with pytest.raises(ValueError):
        jump_sequence(v_one, 5, 2)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10])
def test_tolerances_that_are_not_positive_and_finite_are_rejected_before_the_mesh(tol):
    p = Potential.from_formula("2+sin(x)", 0.0, 3.0)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        find_jump(p, 3, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        jump_sequence(p, 1, 3, tol=tol)
    assert not p.cell_meshes


def test_unconverged_root_raises(v_one, monkeypatch):
    # theta(b) leaps over the target at lambda = 3: every iterate misses by 1
    import sturmjumps.jumps as jumps
    from sturmjumps.oscillation import PhaseResult

    def leaping_phases(p, lams, rtol):
        return [PhaseResult(lam, 3.0 * math.pi + (1.0 if lam >= 3.0 else -1.0), 0, 1, 0) for lam in lams]

    monkeypatch.setattr(jumps, "_phases", leaping_phases)
    with pytest.raises(BracketingError, match="n=3"):
        find_jump(v_one, 3)


def _calls_per_root(records):
    return sum(r.phase_calls for r in records) / len(records)


def test_start_rule_phase_calls(v_sin, v_linear):
    # the two-term Liouville-Green start sqrt((n pi/D)^2 - Ubar) plus slope
    # steps along d theta/d lambda ~ D
    head = jump_sequence(v_sin, 1, 60)
    assert _calls_per_root(head) <= 2.5
    assert all(r.cells > 0 and r.rk_steps == 0 for r in head)
    # from n ~ 200 the start already meets tol*n
    assert [r.phase_calls for r in jump_sequence(v_sin, 200, 230)] == [1] * 31
    # conjecture class: start at (n + kappa) pi/D
    assert _calls_per_root(jump_sequence(v_linear, 70, 100)) <= 2.2


def _fake_phases(theta, seen):
    from sturmjumps.oscillation import PhaseResult

    def fake(p, lams, rtol):
        seen.extend(lams)
        return [PhaseResult(lam, theta(lam), 0, 1, 2) for lam in lams]

    return fake


def test_far_start_steps_below_zero_are_halved(v_one, monkeypatch):
    # theta = pi*lam + 50*pi*lam/(1+lam): the start lam0 = 10 sits about 50*pi
    # above the target, and the first slope step would land at lam < 0
    import sturmjumps.jumps as jumps

    theta = lambda lam: math.pi * lam + 50.0 * math.pi * lam / (1.0 + lam)
    seen = []
    monkeypatch.setattr(jumps, "_phases", _fake_phases(theta, seen))
    rec = find_jump(v_one, 10)
    assert seen[:2] == [10.0, 5.0]
    root = 0.5 * (math.sqrt(41.0**2 + 40.0) - 41.0)  # lam^2 + 41 lam - 10 = 0
    assert rec.lambda_n == pytest.approx(root, rel=1e-9)
    assert abs(theta(rec.lambda_n) - 10 * math.pi) <= 1e-10 * 10
    assert rec.phase_calls == len(seen) <= 20
    # every phase call's steps and rejections are carried into the record
    assert (rec.rk_steps, rec.rk_rejected) == (len(seen), 2 * len(seen))


def test_far_start_below_a_flat_phase_doubles_steps(v_one, monkeypatch):
    # theta = 10*pi*log(1+lam) - 50*pi is far below the target at lam0 = 10 and
    # flattens as lam grows, so secant steps alone creep from below; with the
    # doubling the sign change comes within 6 steps, without it in none of them
    import sturmjumps.jumps as jumps

    theta = lambda lam: 10.0 * math.pi * math.log1p(lam) - 50.0 * math.pi
    seen = []
    monkeypatch.setattr(jumps, "_phases", _fake_phases(theta, seen))
    monkeypatch.setattr(jumps, "_MAX_EXPANSIONS", 6)
    rec = find_jump(v_one, 10)
    assert rec.lambda_n == pytest.approx(math.expm1(6.0), rel=1e-9)
    assert abs(theta(rec.lambda_n) - 10 * math.pi) <= 1e-10 * 10
    assert rec.phase_calls == len(seen) <= 12


def test_no_sign_change_raises(v_one, monkeypatch):
    # theta never reaches the target: the slope steps give up after _MAX_EXPANSIONS
    import sturmjumps.jumps as jumps

    seen = []
    monkeypatch.setattr(jumps, "_phases", _fake_phases(lambda lam: math.atan(lam), seen))
    monkeypatch.setattr(jumps, "_MAX_EXPANSIONS", 20)
    with pytest.raises(BracketingError, match="no sign change"):
        find_jump(v_one, 3)
    assert len(seen) == 21


@pytest.mark.parametrize(
    "source,gamma_a,gamma_b,n_min,n_max",
    [("2+sin(x)", None, None, 1, 60), ("x", 1.0, 0.0, 70, 75), ("(1-x)/x", -1.0, 1.0, 95, 97)],
)
def test_lockstep_records_equal_find_jump(source, gamma_a, gamma_b, n_min, n_max):
    # a sequence advances all its roots a round at a time, one batched phase
    # call per round; each record, counters included, is the bare call's
    if gamma_a is None:
        p = Potential.from_formula(source, 0.0, 3.0)
    else:
        p = Potential.from_formula(source, 0.0, 1.0, regularity="conjecture", gamma_a=gamma_a, gamma_b=gamma_b)
    records = jump_sequence(p, n_min, n_max)
    assert records == [find_jump(p, n) for n in range(n_min, n_max + 1)]


def test_phase_error_in_one_lane_propagates(v_linear, monkeypatch):
    # the sliver fails above lambda = 336.5, between lambda_72 and lambda_73:
    # the sequence raises what the bare root finder raises past it
    import sturmjumps.oscillation as oscillation
    from sturmjumps.oscillation import PhaseError

    slivers = oscillation._slivers

    def failing(tasks):
        lam = max(task[1] for task in tasks)
        if lam > 336.5:
            raise PhaseError(f"sliver failed at lambda={lam!r}")
        return slivers(tasks)

    monkeypatch.setattr(oscillation, "_slivers", failing)
    assert find_jump(v_linear, 70).lambda_n < 336.5
    with pytest.raises(PhaseError):
        find_jump(v_linear, 75)
    with pytest.raises(PhaseError):
        jump_sequence(v_linear, 70, 75)


def test_propagator_failure_in_one_lane_propagates(monkeypatch):
    # a mesh too coarse for its decade and no refinement allowed: most lanes
    # of the batched rounds miss rtol, a few (n = 1..5, 25..27) do not (the
    # build's 16 first cells already meet rtol here, so it starts from 8)
    from sturmjumps import propagator
    from sturmjumps.oscillation import PhaseError

    monkeypatch.setattr(propagator, "_SHARE", 300.0)
    monkeypatch.setattr(propagator, "_INITIAL_CELLS", 8)
    monkeypatch.setattr(propagator, "_MAX_REFINE", 0)
    p = Potential.from_formula("2+sin(x)", 0.0, 3.0)
    assert find_jump(p, 5).n == 5
    with pytest.raises(PhaseError, match="refinements"):
        find_jump(p, 6)
    with pytest.raises(PhaseError, match="refinements"):
        jump_sequence(p, 1, 30)


def test_start_that_cannot_build_its_mesh_raises_phase_error(monkeypatch):
    # the theorem-class start reads the U integral from the mesh its phase
    # calls sweep, and fails there as the phase would
    from sturmjumps import propagator
    from sturmjumps.oscillation import PhaseError

    # c_lower and D are given, so nothing evaluates V below x = 1 until the mesh does
    p = Potential.from_formula("1+sqrt(x-1)", 0.0, 2.0, c_lower=1.0)
    with pytest.raises(PhaseError, match="evaluation failed"):
        find_jump(p, 1, d_value=2.0)
    monkeypatch.setattr(propagator, "_MAX_CELLS", 20)
    with pytest.raises(PhaseError, match="more than 20 cells"):
        find_jump(Potential.from_formula("1.2+sin(3*x)", 0.0, 3.0), 1)


def test_potential_that_fails_on_the_mesh_raises_phase_error_everywhere(monkeypatch):
    # V cannot be evaluated below x = 1: every entry point builds the phase's
    # mesh before it integrates D, and fails there as the phase does; D's own
    # failures stay QuadratureError
    from sturmjumps import jumps
    from sturmjumps.oscillation import PhaseError, phase
    from sturmjumps.quadrature import QuadratureError

    p = Potential.from_formula("1+sqrt(x-1)", 0.0, 2.0, c_lower=1.0)
    for run in (lambda: phase(p, 1.0), lambda: find_jump(p, 1), lambda: jump_sequence(p, 1, 2)):
        with pytest.raises(PhaseError, match="evaluation failed"):
            run()

    def unconverged(*args, **kwargs):
        raise QuadratureError("tanh-sinh did not converge")

    monkeypatch.setattr(jumps, "integrate_sqrt_v", unconverged)
    v_sin = Potential.from_formula("2+sin(x)", 0.0, 3.0)
    for run in (lambda: find_jump(v_sin, 1), lambda: jump_sequence(v_sin, 1, 2)):
        with pytest.raises(QuadratureError, match="converge"):
            run()


# lambda_n bit for bit at tol 1e-10, at both ends of criterion 4's 2+sin(x)
# table (n = 1..500) and criterion 7's x and (1-x)/x tables (n = 20..400)
_PINNED_ROOTS = {
    ("2+sin(x)", None, None): {1: 0.6191778572845282, 2: 1.272908589750147, 499: 320.6850051144,
                               500: 321.3276606364388},
    ("x", 1.0, 0.0): {20: 93.85674507977517, 21: 98.56905450182443, 399: 1879.8505872100723,
                      400: 1884.5629759826165},
    ("(1-x)/x", -1.0, 1.0): {20: 40.332835491638754, 21: 42.33286658363611, 399: 798.3333240297369,
                             400: 800.3333240607216},
}


@pytest.mark.parametrize("source,gamma_a,gamma_b", list(_PINNED_ROOTS))
def test_table_roots_are_pinned(source, gamma_a, gamma_b):
    if gamma_a is None:
        p = Potential.from_formula(source, 0.0, 3.0)
    else:
        p = Potential.from_formula(source, 0.0, 1.0, regularity="conjecture", gamma_a=gamma_a, gamma_b=gamma_b)
    pinned = _PINNED_ROOTS[source, gamma_a, gamma_b]
    ns = sorted(pinned)
    for lo, hi in ((ns[0], ns[1]), (ns[2], ns[3])):
        assert {r.n: r.lambda_n for r in jump_sequence(p, lo, hi)} == {lo: pinned[lo], hi: pinned[hi]}


@pytest.mark.parametrize("source,gamma_a,gamma_b", [("2+sin(x)", None, None), ("x", 1.0, 0.0)])
def test_a_table_reads_its_start_terms_once(source, gamma_a, gamma_b, monkeypatch):
    import sturmjumps.jumps as jumps

    if gamma_a is None:
        p = Potential.from_formula(source, 0.0, 3.0)
    else:
        p = Potential.from_formula(source, 0.0, 1.0, regularity="conjecture", gamma_a=gamma_a, gamma_b=gamma_b)
    reads = []
    start_terms = jumps._start_terms
    monkeypatch.setattr(jumps, "_start_terms", lambda *args: reads.append(args) or start_terms(*args))
    records = jump_sequence(p, 20, 40)
    assert len(reads) == 1
    # a bare root reads its own, the same pair
    assert find_jump(p, 30) == records[10] and len(reads) == 2
