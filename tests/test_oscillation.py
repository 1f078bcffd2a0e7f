import math

import pytest

import sturmjumps.oscillation as oscillation
from sturmjumps.oscillation import (
    AtJumpAmbiguity,
    PhaseError,
    _offset_delta,
    count_negative,
    phase,
)
from sturmjumps.potential import Potential, Regularity
from sturmjumps.propagator import bulk_interval
from sturmjumps.spectra_oracle import count_matrix


def test_constant_potential_phase_is_linear(v_one):
    res = phase(v_one, 2.5)
    assert res.theta_b == pytest.approx(2.5 * math.pi, rel=1e-12)
    assert res.count == 2
    assert res.theta_b > 0.0
    # theorem class: swept by the cell propagator, with no RK steps
    assert res.cells > 0 and res.steps == res.rejected_steps == 0
    assert 0.0 <= res.error_estimate <= 1e-10 * res.theta_b


def test_exactly_at_jump_excludes_zero_eigenvalue(v_one):
    # theta(b) = 3*pi: the third zero sits at x = b, so N = 2
    res = phase(v_one, 3.0)
    assert res.theta_b == pytest.approx(3.0 * math.pi, rel=1e-12)
    assert res.count == 2


def test_scaled_constant_potential(v_four):
    res = phase(v_four, 2.0)
    assert res.theta_b == pytest.approx(4.0, rel=1e-12)
    assert count_negative(v_four, 2.0) == math.ceil(4.0 / math.pi) - 1 == 1


def test_no_negative_eigenvalues_below_threshold(v_one):
    assert count_negative(v_one, 0.5) == 0


def test_count_matches_matrix_oracle_linear(v_linear):
    assert count_negative(v_linear, 20.0) == count_matrix(v_linear, 20.0, 20000)


def test_count_matches_matrix_oracle_sine(v_sin):
    assert count_negative(v_sin, 40.0) == count_matrix(v_sin, 40.0, 20000)


def test_phase_monotone_in_lambda(v_sin):
    thetas = [phase(v_sin, lam).theta_b for lam in (1.0, 2.0, 5.0, 17.0, 60.0)]
    assert all(b > a for a, b in zip(thetas, thetas[1:]))


def test_tolerance_convergence(v_sin):
    rtol = 1e-8
    t1 = phase(v_sin, 35.0, rtol=rtol).theta_b
    t2 = phase(v_sin, 35.0, rtol=rtol / 2.0).theta_b
    assert abs(t1 - t2) < 10.0 * rtol * t1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_count_band_follows_rtol(v_sin, n):
    # criterion 8's rule at rtol 1e-12: theta_b/pi at lambda_n(1 +/- 1e-8) is about
    # 1e-8 * n off the integer, far outside the call's resolution 1e-12 * n, so
    # phase() counts it like count_negative does, as off the jump
    from sturmjumps.jumps import find_jump

    lam = find_jump(v_sin, n).lambda_n
    for factor, want in ((1.0 - 1e-8, n - 1), (1.0 + 1e-8, n)):
        assert phase(v_sin, lam * factor, rtol=1e-12).count == want
        assert count_negative(v_sin, lam * factor, rtol=1e-12, jump_guard=1e-9) == want


def test_at_jump_ambiguity_raised(v_one):
    with pytest.raises(AtJumpAmbiguity) as err:
        count_negative(v_one, 3.0)
    assert err.value.theta_b == pytest.approx(3.0 * math.pi, rel=1e-12)


def test_invalid_arguments(v_one):
    with pytest.raises(ValueError):
        phase(v_one, -1.0)
    with pytest.raises(ValueError):
        phase(v_one, 1.0, rtol=0.0)


def test_negative_potential_fails_cleanly():
    p = Potential.from_formula("sin(x)", 0.0, 6.0)
    with pytest.raises(PhaseError, match="fell"):
        phase(p, 5.0)


# -- singular endpoint handling ----------------------------------------------


def test_start_point_regular_endpoint_needs_no_offset():
    # declared exponents 0: the propagator covers [a, b] and no sliver is offset or stepped
    p = Potential.from_formula(
        "1+x", 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=0.0, gamma_b=0.0
    )
    assert bulk_interval(p) == (0.0, 1.0)
    res = phase(p, 10.0)
    assert res.steps == 0 and res.cells > 0


def test_start_point_offset_scale(v_linear):
    x0 = v_linear.a + _offset_delta(v_linear, 100.0, "a")
    assert 0.0 < x0 <= 1e-4
    # the offset criterion itself: lambda^2 V(delta) delta^2 <= _DELTA_TOL
    assert 100.0**2 * x0 * x0 * x0 <= oscillation._DELTA_TOL * 1.0001


def _offset_delta_120(p, lam, end):
    """_offset_delta's bisection run for all of its 120 iterations: the reference."""
    anchor, inward = (p.a, p.b) if end == "a" else (p.b, p.a)
    ulp = abs(math.nextafter(anchor, inward) - anchor)

    def excess(delta):
        try:
            v = p.value_fn(anchor + delta if end == "a" else anchor - delta)
        except (ValueError, ZeroDivisionError, OverflowError):
            return math.inf
        return lam * lam * v * delta * delta - oscillation._DELTA_TOL if math.isfinite(v) else math.inf

    hi = (p.b - p.a) / 8.0
    if excess(hi) <= 0.0:
        return hi
    lo = max(1e-30 * (p.b - p.a), ulp)
    while excess(lo) > 0.0:
        lo = max(lo * 1e-30, ulp)
    log_lo, log_hi = math.log(lo), math.log(hi)
    for _ in range(120):
        log_mid = 0.5 * (log_lo + log_hi)
        if excess(math.exp(log_mid)) > 0.0:
            log_hi = log_mid
        else:
            log_lo = log_mid
    return math.exp(log_lo)


@pytest.mark.parametrize(
    "source,gamma_a,gamma_b", [("x", 1.0, 0.0), ("sqrt(x)", 0.5, 0.0), ("(1-x)/x", -1.0, 1.0), ("x/(1-x)", 1.0, -1.0)]
)
def test_offset_bisection_stops_at_its_fixed_point(source, gamma_a, gamma_b):
    # the bisection stops once a midpoint equals an end; the offset is the
    # one all 120 iterations give
    p = Potential.from_formula(source, 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=gamma_a, gamma_b=gamma_b)
    for lam in (0.3, 7.0, 100.0, 470.0):
        for end in "ab":
            assert _offset_delta(p, lam, end) == _offset_delta_120(p, lam, end), (lam, end)


def test_start_point_only_for_conjecture_class(v_one):
    # a theorem-class phase starts at a itself: no offset, no RK45 sliver
    assert bulk_interval(v_one) == (v_one.a, v_one.b)
    assert phase(v_one, 10.0).steps == 0


def test_offset_self_convergence_linear(v_linear, monkeypatch):
    # shrinking the offset tolerance (hence the offset) leaves theta(b) put
    t1 = phase(v_linear, 100.0, rtol=1e-12).theta_b
    monkeypatch.setattr(oscillation, "_DELTA_TOL", 1.25e-11)
    t2 = phase(v_linear, 100.0, rtol=1e-12).theta_b
    assert abs(t1 - t2) < 1e-8


def test_offset_self_convergence_rational(v_rational, monkeypatch):
    # both ends are seeded from u ~ |x - end|, so the matched angle, like
    # the count, does not depend on the offset size
    r1 = phase(v_rational, 50.0, rtol=1e-11)
    monkeypatch.setattr(oscillation, "_DELTA_TOL", 1.25e-11)
    r2 = phase(v_rational, 50.0, rtol=1e-11)
    assert r1.count == r2.count == count_negative(v_rational, 50.0, rtol=1e-11)
    assert abs(r1.theta_b - r2.theta_b) < 1e-8


def test_offset_self_convergence_at_jump(v_rational, monkeypatch):
    from sturmjumps.jumps import find_jump

    r1 = find_jump(v_rational, 12)
    monkeypatch.setattr(oscillation, "_DELTA_TOL", 1.25e-11)
    r2 = find_jump(v_rational, 12)
    assert r1.lambda_n == pytest.approx(r2.lambda_n, rel=1e-7)


@pytest.mark.parametrize(
    "source,a,b,gamma_a,gamma_b",
    [
        ("1/sqrt(1-x)", 0.0, 1.0, 0.0, -0.5),
        ("1/sqrt(x-1)", 1.0, 2.0, -0.5, 0.0),
        ("x/(1-x)", 0.0, 1.0, 1.0, -1.0),
    ],
)
def test_blow_up_end_away_from_zero_matches_matrix(source, a, b, gamma_a, gamma_b):
    # V is infinite at an end other than x = 0, where an offset of 1e-30 (b - a)
    # rounds onto the end itself; the offset search starts one ulp inside
    p = Potential.from_formula(
        source, a, b, regularity=Regularity.CONJECTURE, gamma_a=gamma_a, gamma_b=gamma_b
    )
    for lam in (10.0, 37.3):
        assert phase(p, lam).count == count_matrix(p, lam, 20000)


def test_offset_that_breaks_the_bound_at_one_ulp_raises():
    # lambda^2 V delta^2 ~ delta^0.1 is far above _DELTA_TOL even one ulp from b
    p = Potential.from_formula(
        "(1-x)^(-1.9)", 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=0.0, gamma_b=-1.9
    )
    with pytest.raises(PhaseError, match="near b"):
        phase(p, 10.0)


def test_randomized_oracle_equivalence(v_sin):
    import random

    rng = random.Random(7)
    ok = 0
    for _ in range(10):
        lam = rng.uniform(5.0, 30.0)
        res = phase(v_sin, lam, rtol=1e-10)
        t = res.theta_b / math.pi
        if abs(t - round(t)) < 0.05:
            continue  # too close to a jump for the coarse mesh
        assert count_negative(v_sin, lam) == count_matrix(v_sin, lam, 4000)
        ok += 1
    assert ok >= 7


def test_domain_violation_becomes_phase_error():
    # c_lower is declared, so nothing evaluates V below x = 1 until the phase does
    p = Potential.from_formula("1+sqrt(x-1)", 0.0, 2.0, c_lower=1.0)
    with pytest.raises(PhaseError, match="evaluation failed"):
        phase(p, 5.0)
