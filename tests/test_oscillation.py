import math

import mpmath
import numpy as np
import pytest

import sturmjumps.oscillation as oscillation
from sturmjumps.expr import EvalDomainError, eval_jet2
from sturmjumps.oscillation import (
    AtJumpAmbiguity,
    PhaseError,
    count_negative,
    phase,
)
from sturmjumps.potential import Potential, Regularity
from sturmjumps.propagator import bulk_interval, bulk_mesh, propagate_lanes
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
    # 1e-8 * n off the integer, far outside the call's error bar, so phase()
    # counts it like count_negative does, as off the jump
    from sturmjumps.jumps import find_jump

    lam = find_jump(v_sin, n).lambda_n
    for factor, want in ((1.0 - 1e-8, n - 1), (1.0 + 1e-8, n)):
        assert phase(v_sin, lam * factor, rtol=1e-12).count == want
        assert count_negative(v_sin, lam * factor, rtol=1e-12, jump_guard=1e-9) == want


def test_at_jump_ambiguity_raised(v_one):
    with pytest.raises(AtJumpAmbiguity) as err:
        count_negative(v_one, 3.0)
    assert err.value.theta_b == pytest.approx(3.0 * math.pi, rel=1e-12)


def test_count_takes_the_side_the_error_bar_proves(v_sin):
    # at lambda_5 (1 + 1e-10) and rtol 1e-9 theta_b exceeds 5 pi by ~1.5e-9, thousands of
    # error bars, yet within rtol * theta_b: the count is 5 and count_negative does not refuse
    from sturmjumps.jumps import find_jump

    lam = find_jump(v_sin, 5).lambda_n * (1.0 + 1e-10)
    res = phase(v_sin, lam, rtol=1e-9)
    assert 1000.0 * res.error_estimate < res.theta_b - 5.0 * math.pi < 1e-9 * res.theta_b
    assert res.count == 5
    assert count_negative(v_sin, lam, rtol=1e-9) == 5


def test_count_negative_refuses_exactly_where_the_count_is_at_a_jump(v_one, v_sin):
    # one rule: lambda is at jump k when |theta_b - k pi| <= error_estimate; there the count is
    # k - 1 and count_negative raises at its default guard, elsewhere it returns phase's count
    from sturmjumps.jumps import find_jump

    cases = [(v_one, 2.0), (v_one, 3.0), (Potential.from_formula("(1+x)^(-4)", 0.0, 1.0), 20.0 * math.pi)]
    for n in (1, 20):
        lam = find_jump(v_sin, n, tol=1e-13).lambda_n
        cases += [(v_sin, lam * (1.0 + d)) for d in (0.0, 1e-13, -1e-13, 1e-10, -1e-10)]
    at_jump = 0
    for p, lam in cases:
        res = phase(p, lam)
        k = round(res.theta_b / math.pi)
        if abs(res.theta_b - k * math.pi) <= res.error_estimate:
            at_jump += 1
            assert res.count == k - 1
            with pytest.raises(AtJumpAmbiguity):
                count_negative(p, lam)
        else:
            assert res.count == math.ceil(res.theta_b / math.pi) - 1
            assert count_negative(p, lam) == res.count
    assert 0 < at_jump < len(cases)


def test_invalid_arguments(v_one):
    with pytest.raises(ValueError):
        phase(v_one, -1.0)
    with pytest.raises(ValueError):
        phase(v_one, 1.0, rtol=0.0)


@pytest.mark.parametrize("lam,rtol", [(10.0, math.nan), (10.0, math.inf), (math.inf, 1e-10), (math.nan, 1e-10), (-math.inf, 1e-10)])
def test_non_finite_lambda_and_rtol_are_rejected_before_any_work(lam, rtol):
    # a NaN or infinite coupling or tolerance is a ValueError before a mesh is
    # built, in one lane and among others (a NaN slips past min(lams))
    p = Potential.from_formula("2+sin(x)", 0.0, 3.0)
    with pytest.raises(ValueError, match="must be positive and finite"):
        phase(p, lam, rtol=rtol)
    with pytest.raises(ValueError, match="must be positive and finite"):
        oscillation._phases(p, [5.0, lam, 6.0], rtol)
    assert not p.cell_meshes


def test_negative_potential_fails_cleanly():
    p = Potential.from_formula("sin(x)", 0.0, 6.0)
    with pytest.raises(PhaseError, match="fell"):
        phase(p, 5.0)
    # negative inside the sliver at a: the end ladder's quadrature screens V
    q = Potential.from_formula("x-0.001", 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=1.0, gamma_b=0.0)
    with pytest.raises(PhaseError, match="negative potential"):
        phase(q, 50.0)


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
    # V = x: the ladder's offsets halve from the bulk's edge, xi = (2/3) t^1.5
    # and q = (V'/(4V)) xi/sqrt(V) = 1/6 at every level; at lambda = 100 the
    # bulk's edge itself is seeded, lambda xi_0 <= _Z0, at 1900 a deeper level
    ladder = oscillation._ladder(v_linear, "a")
    ladder.reach(math.inf)  # every level: a sliver builds them as it reaches them
    x_l, _ = bulk_interval(v_linear)
    assert ladder.x[0] == x_l and ladder.x[5] == x_l / 32.0
    assert ladder.nu == pytest.approx(1.0 / 3.0, rel=1e-15)
    for k in (0, 1, 5, 40, 400, len(ladder.x) - 1):
        t = ladder.x[k]
        assert ladder.xi[k] == pytest.approx(2.0 / 3.0 * t**1.5, rel=1e-13), k
        assert ladder.q[k] == pytest.approx(1.0 / 6.0, rel=1e-13), k
    assert 100.0 * ladder.xi[0] <= oscillation._Z0 < 1900.0 * ladder.xi[0]


@pytest.mark.parametrize(
    "source,gamma_a,gamma_b", [("x", 1.0, 0.0), ("sqrt(x)", 0.5, 0.0), ("(1-x)/x", -1.0, 1.0), ("x/(1-x)", 1.0, -1.0)]
)
def test_seed_ladder_matches_quadrature(source, gamma_a, gamma_b):
    # xi at every few levels of each singular end against mpmath's quadrature
    # of sqrt(V) from the end; near b = 1 the Gauss nodes round in x, which
    # costs the widest levels a few 1e-13
    p = Potential.from_formula(source, 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=gamma_a, gamma_b=gamma_b)
    for end, gamma in (("a", gamma_a), ("b", gamma_b)):
        if gamma == 0.0:
            continue
        ladder = oscillation._ladder(p, end)
        ladder.reach(math.inf)
        anchor = mpmath.mpf(0 if end == "a" else 1)
        with mpmath.workdps(30):
            for k in range(0, len(ladder.x), 7):
                t = abs(mpmath.mpf(ladder.x[k]) - anchor)
                want = mpmath.quad(lambda s: mpmath.sqrt(_mp_value(source, end, s)), [0, t])
                assert abs(ladder.xi[k] - want) <= 2e-12 * want, (end, k)
        # the ladder runs to the end's ulp, or at x = 0 until the normal range or V's jet stops it
        assert abs(ladder.x[-1] - float(anchor)) < 1e-15


def _mp_value(source, end, s):
    """V at the distance s from the end, with no rounding of x = 1 - s."""
    x, y = (s, 1 - s) if end == "a" else (1 - s, s)  # x and 1 - x
    return {"x": x, "sqrt(x)": mpmath.sqrt(x), "(1-x)/x": y / x, "x/(1-x)": x / y}[source]


def test_start_point_only_for_conjecture_class(v_one):
    # a theorem-class phase starts at a itself: no offset, no RK45 sliver
    assert bulk_interval(v_one) == (v_one.a, v_one.b)
    assert phase(v_one, 10.0).steps == 0


def test_offset_self_convergence_linear(v_linear, monkeypatch):
    # halving the share the seed's halving check may leave leaves theta(b) put
    t1 = phase(v_linear, 100.0, rtol=1e-12).theta_b
    monkeypatch.setattr(oscillation, "_SEED_SHARE", 0.5 * oscillation._SEED_SHARE)
    t2 = phase(v_linear, 100.0, rtol=1e-12).theta_b
    assert abs(t1 - t2) < 1e-8


def test_offset_self_convergence_rational(v_rational, monkeypatch):
    # both ends are Bessel-seeded, the right one (V ~ 1 - x) with a seed
    # that its next term biases; whichever level a halved share's check
    # settles on, the matched angle, like the count, does not move
    r1 = phase(v_rational, 50.0, rtol=1e-11)
    monkeypatch.setattr(oscillation, "_SEED_SHARE", 0.5 * oscillation._SEED_SHARE)
    r2 = phase(v_rational, 50.0, rtol=1e-11)
    assert r1.count == r2.count == count_negative(v_rational, 50.0, rtol=1e-11)
    assert abs(r1.theta_b - r2.theta_b) < 1e-8


def test_offset_self_convergence_at_jump(v_rational, monkeypatch):
    from sturmjumps.jumps import find_jump

    r1 = find_jump(v_rational, 12)
    monkeypatch.setattr(oscillation, "_SEED_SHARE", 0.5 * oscillation._SEED_SHARE)
    r2 = find_jump(v_rational, 12)
    # both within the --root-tol contract, tol*n/D in lambda with D = pi/2
    assert abs(r1.lambda_n - r2.lambda_n) <= 2.0 * 1e-10 * 12 / (math.pi / 2.0)


@pytest.mark.parametrize("nu", [0.25, 1.0 / 3.0, 0.4, 1.0, 10.0])
def test_seed_series_matches_mpmath_besselj(nu):
    # xi g'/g = 1/2 + z J_nu'(z)/J_nu(z) on (0, _Z0]; it crosses 0 for small nu,
    # so the error is taken relative to its size or its value nu + 1/2 at z = 0
    coef = [1.0]
    for m in range(1, oscillation._SERIES_TERMS):
        coef.append(coef[-1] / (m * (nu + m)))
    zs = [1e-300, 1e-20, 1e-8] + [oscillation._Z0 * k / 200.0 for k in range(1, 201)]
    with mpmath.workdps(40):
        for z in zs:
            got = oscillation._log_derivative(z, nu, coef)
            zm = mpmath.mpf(z)
            want = 0.5 + zm * mpmath.besselj(nu, zm, derivative=1) / mpmath.besselj(nu, zm)
            assert abs(got - want) <= 1e-14 * max(abs(want), nu + 0.5), z


def _closed_form_angle(gamma, lam, x):
    """The Prüfer angle on the scale lam sqrt(V) at x of u = sqrt(x) J_nu(lam xi), V = x^gamma, by mpmath."""
    nu = mpmath.mpf(1) / (gamma + 2)
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        u = lambda s: mpmath.sqrt(s) * mpmath.besselj(nu, lam * 2 * nu * s ** (1 / (2 * nu)))
        phi = mpmath.atan2(lam * xm ** (gamma / 2) * u(xm), mpmath.diff(u, xm))
        z = lam * 2 * nu * xm ** (1 / (2 * nu))
        zeros = 0
        while mpmath.besseljzero(nu, zeros + 1) < z:
            zeros += 1
        return float(phi + mpmath.pi * (zeros + (phi < 0)))


@pytest.mark.parametrize("lam", [100.0, 470.0, 1900.0])
@pytest.mark.parametrize("fixture", ["v_linear", "v_sqrt"])
def test_sliver_angle_matches_closed_form(fixture, lam, request):
    # a pure power end: the Bessel reference is the solution itself
    p = request.getfixturevalue(fixture)
    rtol = 1e-11
    x_l, _ = bulk_interval(p)
    target = oscillation._SEED_SHARE * rtol * max(lam * bulk_mesh(p, rtol).length, math.pi)
    theta, steps, _, gap = oscillation._slivers([(oscillation._ladder(p, "a"), lam, target)])[0]
    assert abs(theta - _closed_form_angle(p.gamma_a, lam, x_l)) <= rtol * math.pi
    # 3 collocation cells (one octave and its halves) at lambda = 100 and 470, 9 and 12 at 1900
    assert 0.0 < gap < target and 0 < steps <= 15


def test_sliver_whose_check_never_passes_raises(v_linear, monkeypatch):
    # with no share to leave, no level's gap passes: the sliver raises where
    # its ladder runs out of levels instead of returning a best guess
    monkeypatch.setattr(oscillation, "_SEED_SHARE", 0.0)
    with pytest.raises(PhaseError, match="ladder near a ran out of levels"):
        phase(v_linear, 100.0)


def test_error_estimate_adds_the_slivers_gaps(v_rational):
    lam, rtol = 200.0, 1e-11
    x_l, x_r = bulk_interval(v_rational)
    theta_l, _, steps, _, gap = oscillation._ends(v_rational, [lam], rtol, x_l, x_r, bulk_mesh(v_rational, rtol).length)[0]
    ((_, _, estimate),) = propagate_lanes(v_rational, [lam], rtol, [theta_l])
    res = phase(v_rational, lam, rtol)
    assert gap > 0.0 and res.error_estimate == estimate + gap and res.steps == steps


@pytest.mark.parametrize(
    "source,gamma_a,gamma_b,lam,most",
    [("x", 1.0, 0.0, 100.0, 30), ("x", 1.0, 0.0, 470.0, 30), ("sqrt(x)", 0.5, 0.0, 100.0, 30), ("sqrt(x)", 0.5, 0.0, 470.0, 30),
     ("(1-x)/x", -1.0, 1.0, 100.0, 281), ("(1-x)/x", -1.0, 1.0, 470.0, 393), ("(1-x)/x", -1.0, 1.0, 1900.0, 587)],
)
def test_sliver_steps_at_rtol_1e_11(source, gamma_a, gamma_b, lam, most):
    # the bounds of the Bessel-seeded RK45, which the collocation cells stay
    # within (their counts are pinned in test_sliver_cells_at_rtol_1e_11);
    # the RK45 seeded u ~ |x - end| took 94-122 steps on x and sqrt(x) and
    # 282/394/588 on (1-x)/x at lambda = 100/470/1900
    p = Potential.from_formula(source, 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=gamma_a, gamma_b=gamma_b)
    assert 0 < phase(p, lam, rtol=1e-11).steps <= most


@pytest.mark.parametrize(
    "source,gamma_a,gamma_b,lam,most",
    [("x", 1.0, 0.0, 100.0, 4), ("x", 1.0, 0.0, 470.0, 4), ("x", 1.0, 0.0, 1900.0, 12),
     ("sqrt(x)", 0.5, 0.0, 100.0, 4), ("sqrt(x)", 0.5, 0.0, 470.0, 4), ("sqrt(x)", 0.5, 0.0, 1900.0, 15),
     ("(1-x)/x", -1.0, 1.0, 100.0, 27), ("(1-x)/x", -1.0, 1.0, 470.0, 39), ("(1-x)/x", -1.0, 1.0, 1900.0, 80)],
)
def test_sliver_cells_at_rtol_1e_11(source, gamma_a, gamma_b, lam, most):
    # the collocation cells measured: 3/3/9 on x, 3/3/12 on sqrt(x) and
    # 21/30/63 on (1-x)/x at lambda = 100/470/1900, where RK45 took 23/23/65,
    # 16/14/70 and 131/209/403 steps; on (1-x)/x each end's first check fails
    p = Potential.from_formula(source, 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=gamma_a, gamma_b=gamma_b)
    res = phase(p, lam, rtol=1e-11)
    assert 0 < res.steps <= most
    assert res.rejected_steps == (2 if source == "(1-x)/x" else 0)


def _eager_ladder(p, end):
    """x, xi and q at every level of the end's ladder, built at once as before levels came on demand."""
    import sys

    from sturmjumps.quadrature import _graded_xi, _power_tail

    x_l, x_r = bulk_interval(p)
    sign, anchor, gamma, x0 = (1.0, p.a, p.gamma_a, x_l) if end == "a" else (-1.0, p.b, p.gamma_b, x_r)
    width = abs(x0 - anchor)
    xs, ts, vs, betas = [], [], [], []
    while True:
        x = anchor + sign * math.ldexp(width, -len(xs)) if xs else x0
        t = abs(x - anchor)
        if not t >= sys.float_info.min or (ts and t == ts[-1]):
            break
        try:
            v, dv, _ = eval_jet2(p.ast, x)
        except ArithmeticError:
            break
        if not (0.0 < v < math.inf and math.isfinite(dv)):
            break
        xs.append(x)
        ts.append(t)
        vs.append(v)
        betas.append(sign * 0.25 * dv / v)
    t, sq, beta = np.array(ts), np.sqrt(vs), np.array(betas)
    xi = _power_tail(t, sq, beta, gamma)[0]
    graded = _graded_xi(p, end, x0)[0]
    deep = min(len(graded), len(xi))
    xi[:deep] = graded[:deep]
    levels = int(np.count_nonzero(xi >= sys.float_info.min))
    return xs[:levels], xi[:levels].tolist(), (beta * xi / sq)[:levels].tolist()


@pytest.mark.parametrize(
    "source,gamma_a,gamma_b",
    [("x", 1.0, 0.0), ("sqrt(x)", 0.5, 0.0), ("(1-x)/x", -1.0, 1.0), ("x/(1-x)", 1.0, -1.0), ("x^(-0.5)", -0.5, 0.0), ("x^2", 2.0, 0.0)],
)
def test_ladder_levels_on_demand_match_the_eager_build(source, gamma_a, gamma_b):
    # a phase builds only the levels its checks reach; reached to the end,
    # the ladder holds the levels of the former eager build, bit for bit
    p = Potential.from_formula(source, 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=gamma_a, gamma_b=gamma_b)
    phase(p, 470.0, rtol=1e-11)
    for end, gamma in (("a", gamma_a), ("b", gamma_b)):
        if gamma == 0.0:
            continue
        ladder = oscillation._ladder(p, end)
        assert 2 <= len(ladder.x) <= 20 and not ladder.ended, end
        assert not ladder.reach(math.inf) and ladder.ended
        xs, xi, q = _eager_ladder(p, end)
        assert (ladder.x, ladder.xi, ladder.q) == (xs, xi, q), end
        if end == "b":
            assert len(xs) > 30  # down to the ulp at 1
        elif len(xs) <= 400:
            # V'' overflows at the next offset, as on (1-x)/x and x^(-0.5), with xi already deep
            with pytest.raises(EvalDomainError):
                eval_jet2(p.ast, math.ldexp(xs[0], -len(xs)))
            assert xi[-1] <= 1e-50


def test_octaves_are_cut_by_lambda():
    # on x at lambda = 4700 (n ~ 1000) the top octave spans lambda Delta xi ~ 7.9:
    # it is carried on 4 pieces and their halves, every piece within _PIECE_Z
    p = Potential.from_formula("x", 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=1.0, gamma_b=0.0)
    lam = 4700.0
    res = phase(p, lam, rtol=1e-11)
    ladder = oscillation._ladder(p, "a")
    assert 7.0 < lam * (ladder.xi[0] - ladder.xi[1]) <= 4 * oscillation._PIECE_Z
    assert oscillation._pieces(ladder, lam, 0) == 2 and (0, 2) in ladder.cells
    assert res.steps == 3 * sum(2**m for _, m in ladder.cells)
    for k, m in ladder.cells:
        assert lam * (ladder.xi[k] - ladder.xi[k + 1]) / 2**m <= oscillation._PIECE_Z


def test_sliver_whose_cells_miss_raises(v_linear, monkeypatch):
    # octaves carried whole at lambda = 4700, some 8 radians a cell: the
    # halves disagree with the whole far beyond the target, which raises
    # instead of returning a best guess
    monkeypatch.setattr(oscillation, "_PIECE_Z", math.inf)
    with pytest.raises(PhaseError, match="collocation cells near a miss rtol"):
        phase(v_linear, 4700.0, rtol=1e-11)


def test_sliver_ladder_error_comes_before_a_miss(v_linear, monkeypatch):
    # two slivers of one call: the first is finished, missing its target, in
    # the first round; the second's check never passes and its ladder runs
    # out rounds later.  The ladder's error is the one raised.
    monkeypatch.setattr(oscillation, "_PIECE_Z", math.inf)
    ladder, lam, rtol = oscillation._ladder(v_linear, "a"), 4700.0, 1e-11
    target = oscillation._SEED_SHARE * rtol * max(lam * bulk_mesh(v_linear, rtol).length, math.pi)
    with pytest.raises(PhaseError, match="collocation cells near a miss rtol"):
        oscillation._slivers([(ladder, lam, target)])
    with pytest.raises(PhaseError, match="ladder near a ran out of levels"):
        oscillation._slivers([(ladder, lam, target), (ladder, 100.0, 0.0)])


def test_vanishing_mirror_runs_to_lambda_2000(v_rational):
    # x/(1-x) is (1-x)/x mirrored: its right sliver is Bessel-seeded some 1e-6
    # from b, where the RK45 seeded u ~ |x - end| started a few ulps from b and
    # failed from lambda ~ 596 on; the jumps agree with the mirror's
    from sturmjumps.jumps import find_jump

    p = Potential.from_formula("x/(1-x)", 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=1.0, gamma_b=-1.0)
    for lam in range(50, 2001, 50):
        phase(p, float(lam), rtol=1e-11)
    for n in (300, 600):
        got, want = find_jump(p, n), find_jump(v_rational, n)
        assert abs(got.lambda_n - want.lambda_n) <= 2.0 * 1e-10 * n / (math.pi / 2.0), n


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
