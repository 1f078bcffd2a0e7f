"""The --root-tol contract against exact roots, and the phase against an oracle.

``find_jump(p, n, tol)`` promises |theta(b; lambda_n) - n*pi| <= tol*n.
Against roots known in closed form (Bessel and Whittaker zeros, 2 pi n for
(1+x)^-4) the promise is checked as D*|lambda_n - lambda*_n| <= tol*n, with
D = int sqrt(V) standing in for the slope of theta(b; .) at the root.  On
the theorem class theta(b) is read on the constant scale
lambda*sqrt(max(c_lower, 1)), where that slope is
D*sqrt(max(c_lower, 1)/V(b)), not D: 0.61*D on exp(x) and 0.71*D = 0.862
on 1+x, where the residual over lambda_n - lambda*_n measures
3.645e-12/4.236e-12 = 0.861.  So the exp(x) and 1+x rows compare the exact
angle at lambda_n, atan(lambda*u(b)/u'(b)), with tol*n; D times the root's
error reads 1.03*tol*n on 1+x at n = 5, tol 1e-12, where the angle reads
0.73*tol*n.  At lambda ~ 1000 theta(b) is checked against the RK oracle.
The phase itself is cross-checked
against two RK45 oracles built on the same Dormand-Prince stepper: the
constant-scale Prüfer equation, for both classes, started from u ~ |x - end|
at an offset of its own (``_offset_delta``), and for the theorem class the
Liouville-Green-scale equation that the cell propagator replaced.  The
end slivers alone are checked against the Liouville-Green-scale equation
in the distance to the end, started from u ~ t (``_sliver_oracle``).
"""

import math

import mpmath
import pytest

import sturmjumps.expr as expr
import sturmjumps.oscillation as oscillation
from rk45 import _rk45
from sturmjumps.jumps import find_jump, jump_sequence
from sturmjumps.oscillation import count_negative, phase
from sturmjumps.potential import Potential, Regularity
from sturmjumps.propagator import bulk_interval, bulk_mesh
from sturmjumps.spectra_oracle import count_matrix

TOL = 1e-10


@pytest.mark.parametrize("n", [20, 80, 140])
def test_root_tol_contract_exact_potential(n):
    # V = (1+x)^-4 on [0, 1]: u = (1+x) sin(lambda x/(1+x)), so lambda_n = 2*pi*n
    p = Potential.from_formula("(1+x)^(-4)", 0.0, 1.0)
    d = 0.5
    rec = find_jump(p, n, tol=TOL, d_value=d)
    assert d * abs(rec.lambda_n - 2.0 * math.pi * n) <= TOL * n


@pytest.mark.parametrize("rtol", [1e-10, 1e-12])
def test_error_estimate_covers_the_rounding_floor(rtol):
    # every cell of (1+x)^-4 is exact, so |fine - coarse| can read 0 while the
    # sums of cell angles leave theta_b up to 6 ulp off n*pi at lambda_n = 2*pi*n
    p = Potential.from_formula("(1+x)^(-4)", 0.0, 1.0)
    for n in [*range(1, 1001, 7), 10, 37, 153, 306, 441, 882]:
        res = phase(p, 2.0 * math.pi * n, rtol=rtol)
        assert abs(res.theta_b - n * math.pi) <= res.error_estimate <= rtol * n, n


def _bessel_root(gamma, n):
    # V = x^gamma on [0, 1]: u = sqrt(x) J_nu(2 lambda x^((gamma+2)/2) / (gamma+2)),
    # nu = 1/(gamma+2), so lambda_n = (gamma+2)/2 * j_(nu, n)
    nu = mpmath.mpf(1) / (gamma + 2)
    return (gamma + 2.0) / 2.0 * float(mpmath.besseljzero(nu, n))


@pytest.mark.parametrize("n", [70, 100, 800, 1000])
@pytest.mark.parametrize("source,gamma", [("x", 1.0), ("sqrt(x)", 0.5), ("x^(-0.5)", -0.5), ("x^2", 2.0)])
def test_root_tol_contract_bessel(source, gamma, n):
    # at n = 800 and 1000 (lambda ~ 1900 for x) an RK45 phase from a + delta
    # to b missed by up to 4.4 tol*n; the propagator carries all but the
    # slivers at x = 0.  V = x^(-0.5) is infinite at 0 and x^2 flat there;
    # at n = 1000 their top octaves are cut in 2 and 8 pieces.  Worst
    # D |lambda_n - lambda*_n| / (tol n) over n = 1..1000: 0.011/0.26 (x),
    # 0.003/0.27 (sqrt(x)), 0.021/0.51 (x^(-0.5)), 0.030/0.71 (x^2) at tol
    # 1e-10/1e-12
    p = Potential.from_formula(
        source, 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=gamma, gamma_b=0.0
    )
    d = 2.0 / (gamma + 2.0)
    for tol in (TOL, 1e-12):
        rec = find_jump(p, n, tol=tol, d_value=d)
        assert d * abs(rec.lambda_n - _bessel_root(gamma, n)) <= tol * n, tol


def _whittaker_root(n):
    # V = (1-x)/x on [0, 1]: u = M_(lambda/2, 1/2)(2 lambda x), so lambda_n is
    # the n-th zero of M_(lambda/2, 1/2)(2 lambda), near (n + 1/6) pi/D = 2n + 1/3
    f = lambda lam: mpmath.whitm(lam / 2, 0.5, 2 * lam)
    return float(mpmath.findroot(f, 2 * n + mpmath.mpf(1) / 3))


@pytest.mark.parametrize("n", [20, 100, 400, 1000])
def test_root_tol_contract_whittaker(v_rational, n):
    # the singular right end: the angle shot back from b is matched at x_r
    d = math.pi / 2.0
    rec = find_jump(v_rational, n, tol=TOL, d_value=d)
    assert d * abs(rec.lambda_n - _whittaker_root(n)) <= TOL * n


def _exp_solution(lam):
    """u(1) and u'(1) for V = exp(x) on [0, 1], at 40 digits.

    u = J0(2 lam) Y0(s) - Y0(2 lam) J0(s) with s = 2 lam e^(x/2) vanishes
    at 0 and solves -u'' = lam^2 e^x u, and u' = -(s/2) (J0(2 lam) Y1(s) -
    Y0(2 lam) J1(s)); so lambda_n is the n-th zero of u(1).
    """
    with mpmath.workdps(40):
        lam = mpmath.mpf(lam)
        s = 2 * lam * mpmath.sqrt(mpmath.e)
        j, y = mpmath.besselj(0, 2 * lam), mpmath.bessely(0, 2 * lam)
        u = j * mpmath.bessely(0, s) - y * mpmath.besselj(0, s)
        return u, -s / 2 * (j * mpmath.bessely(1, s) - y * mpmath.besselj(1, s))


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("n", [1, 10, 100, 600, 1200])
def test_root_tol_contract_exp_exact_angle(v_exp, n, tol):
    # U = exp(-x)/16 varies, so no cell is exact.  The true angle at
    # jump_sequence's lambda_n (up to lambda ~ 2906) is n pi + atan(s u/u')
    # on the exit scale s = lambda sqrt(max(c_lower, 1)) = lambda
    assert v_exp.c_lower == 1.0
    lam = jump_sequence(v_exp, n, n, tol=tol)[0].lambda_n
    u, du = _exp_solution(lam)
    assert abs(mpmath.atan(lam * u / du)) <= tol * n
    # and the zero of u(1) beside lambda_n is the n-th: about n pi / D
    root = mpmath.findroot(lambda x: _exp_solution(x)[0], mpmath.mpf(lam))
    assert round(float(root) * 2.0 * (math.sqrt(math.e) - 1.0) / math.pi) == n


def _airy_solution(lam):
    """u(1) and u'(1) for V = 1+x on [0, 1], at 40 digits.

    With t = lam^(2/3), u = Bi(-t) Ai(s) - Ai(-t) Bi(s), s = -t (1+x),
    vanishes at 0 and solves -u'' = lam^2 (1+x) u, since Ai'' = s Ai; and
    u' = -t (Bi(-t) Ai'(s) - Ai(-t) Bi'(s)).
    """
    with mpmath.workdps(40):
        t = mpmath.mpf(lam) ** (mpmath.mpf(2) / 3)
        ai, bi = mpmath.airyai(-t), mpmath.airybi(-t)
        u = bi * mpmath.airyai(-2 * t) - ai * mpmath.airybi(-2 * t)
        return u, -t * (bi * mpmath.airyai(-2 * t, derivative=1) - ai * mpmath.airybi(-2 * t, derivative=1))


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize("n", [1, 5, 70, 100, 200, 600, 1200])
def test_root_tol_contract_airy(n, tol):
    # U = 5/(16 (1+x)^3) varies, so no cell is exact.  The true angle at
    # find_jump's lambda_n (up to lambda ~ 3093) is n pi + atan(s u/u') on
    # the exit scale s = lambda sqrt(max(c_lower, 1)) = lambda.  Worst over
    # 23 values of n in 1..1200: 0.57 tol*n (n = 70) at 1e-10, 0.85 (n = 200)
    # at 1e-12
    p = Potential.from_formula("1+x", 0.0, 1.0)
    assert p.c_lower == 1.0
    lam = find_jump(p, n, tol=tol).lambda_n
    u, du = _airy_solution(lam)
    assert abs(mpmath.atan(lam * u / du)) <= tol * n
    # the branch: lambda_n is the n-th root, about n pi / D
    d = 2.0 / 3.0 * (2.0**1.5 - 1.0)
    assert abs(lam * d / math.pi - n) < 0.5


_DELTA_TOL = 1e-10  # relative error of u ~ |x - end| allowed over the sliver the oracle skips


def _offset_delta(p, lam, end):
    """Offset delta with lam^2 * V(end +/- delta) * delta^2 <= _DELTA_TOL.

    The bound is the relative error of the leading solution behaviour
    u ~ |x - end| over the skipped sliver, found by bisection in log(delta)
    between hi = (b - a)/8 and a lo that meets it.  lo steps down from
    1e-30 (b - a) but not below the smallest offset that moves the end.
    """
    width = p.b - p.a
    anchor, inward = (p.a, p.b) if end == "a" else (p.b, p.a)
    ulp = abs(math.nextafter(anchor, inward) - anchor)

    def excess(delta):
        try:
            v = p.value_fn(anchor + delta if end == "a" else anchor - delta)
        except (ValueError, ZeroDivisionError, OverflowError):
            return math.inf
        return lam * lam * v * delta * delta - _DELTA_TOL if math.isfinite(v) else math.inf

    hi = width / 8.0
    if excess(hi) <= 0.0:
        return hi
    lo = max(1e-30 * width, ulp)
    while excess(lo) > 0.0:
        if lo <= ulp:
            raise ArithmeticError(f"endpoint offset underflows machine precision near {end}")
        lo = max(lo * 1e-30, ulp)
    log_lo, log_hi = math.log(lo), math.log(hi)
    for _ in range(120):
        log_mid = 0.5 * (log_lo + log_hi)
        fixed = log_mid == log_lo or log_mid == log_hi
        if excess(math.exp(log_mid)) > 0.0:
            log_hi = log_mid
        else:
            log_lo = log_mid
        if fixed:
            break
    return math.exp(log_lo)


def _constant_scale_theta_b(p, lam, rtol):
    """theta(b) from the constant-scale equation theta' = s cos^2 + (lam^2 V/s) sin^2.

    At a singular right end this is the matched angle: the solution
    vanishing at a, shot forward to x_r, and the one vanishing at b, shot
    backward (in t = -x) to x_r, both on the scale s = lam sqrt(V(x_r)).
    A singular end is approached to within ``_offset_delta`` and seeded
    from u ~ |x - end|, independently of the phase's Bessel seeds.
    """
    x_l, x_r = bulk_interval(p)
    if x_r < p.b:
        s = lam * math.sqrt(p.value_fn(x_r))
        # on (1-x)/x the forward shot crosses V/V(x_r) up to 1e13 near a, and
        # at rtol 1e-13 its own error reached 5x the tests' 2e-10*n bound
        rtol = min(rtol, 3e-15)
    elif p.regularity is Regularity.THEOREM:
        s = lam * math.sqrt(max(p.c_lower, 1.0))
    else:
        s = lam
    q_scale = lam * lam / s
    fv = p.value_fn

    def shoot(end, x_stop):
        sign, anchor = (1.0, p.a) if end == "a" else (-1.0, p.b)
        x0 = anchor
        if end == "b" or x_l > p.a:  # shot from b only where it is singular
            x0 = anchor + sign * _offset_delta(p, lam, end)

        def rhs(t, th):
            q = q_scale * fv(sign * t)
            return 0.5 * (s + q) + 0.5 * (s - q) * math.cos(2.0 * th)

        theta0 = math.atan(s * abs(x0 - anchor))
        return _rk45(rhs, sign * x0, theta0, sign * x_stop, rtol, rtol * math.pi, 10**8)[0]

    return shoot("a", x_r) + (shoot("b", x_r) if x_r < p.b else 0.0)


def _lg_theta_b(p, lam, rtol):
    """Theorem-class theta(b) by RK45 on the Liouville-Green scale S = lam sqrt(V).

    theta' = lam sqrt(V) + (V'/(4V)) sin(2 theta) from a to b, converted to the
    constant scale s at b; the global error grows with the step count, so at
    rtol 1e-13 it is about 1e-12 * n at lambda = 1000.
    """
    s = lam * math.sqrt(max(p.c_lower, 1.0))
    jet = expr._scalar_jet2(p.ast)  # bound once: eval_jet2 would hash the AST at every step

    def rhs(x, th):
        v, dv, _ = jet(x)
        return lam * math.sqrt(v) + 0.25 * dv / v * math.sin(2.0 * th)

    scale_b = lam * math.sqrt(p.value_fn(p.b))
    lg_rtol = rtol * min(1.0, scale_b / s)
    theta, _, _ = _rk45(rhs, p.a, 0.0, p.b, lg_rtol, lg_rtol * math.pi, 10**8)
    k = round(theta / math.pi)
    phi = theta - k * math.pi
    return k * math.pi + math.atan2(s * math.sin(phi), scale_b * math.cos(phi))


@pytest.mark.parametrize("n", [1552, 1555, 1556, 1557])
def test_root_tol_contract_near_lambda_1000(v_sin, n):
    # these n put lambda_n of 2+sin(x) on [0, 3] at about 1000, where the
    # RK45 phase's global error broke the contract: 2.8, 3.9 and 0.74 tol*n,
    # and no root within tol*n at all for n = 1557
    rec = find_jump(v_sin, n, tol=TOL)
    assert 997.0 < rec.lambda_n < 1001.0
    theta = _lg_theta_b(v_sin, rec.lambda_n, 1e-13)
    assert abs(theta - n * math.pi) <= TOL * n
    assert rec.residual + rec.error_bar <= TOL * n
    for rtol in (1e-10, 1e-11, 1e-12):
        res = phase(v_sin, rec.lambda_n, rtol=rtol)
        assert res.error_estimate <= rtol * n
        # the oracle's own error here is about 1e-12 * n
        assert abs(res.theta_b - theta) <= max(rtol, 2e-12) * n


@pytest.mark.parametrize("rtol", [1e-10, 1e-11, 1e-12])
@pytest.mark.parametrize("fixture", ["v_sin", "v_exp"])
def test_propagator_matches_lg_oracle(fixture, rtol, request):
    p = request.getfixturevalue(fixture)
    for lam in (0.7, 3.0, 10.0, 100.0, 400.0):
        want = _lg_theta_b(p, lam, 1e-13)
        res = phase(p, lam, rtol=rtol)
        n = max(1.0, want / math.pi)
        assert abs(res.theta_b - want) <= rtol * n
        assert res.error_estimate <= rtol * max(res.theta_b, math.pi)


def test_propagator_on_a_long_interval():
    # 2+sin(x) over twenty periods: U varies fastest where V is near 1, and the
    # low-frequency error sets the mesh; second-order cells keep it small
    p = Potential.from_formula("2+sin(x)", 0.0, 60.0)
    for lam in (0.5, 5.0, 40.0):
        want = _lg_theta_b(p, lam, 1e-13)
        res = phase(p, lam)
        assert abs(res.theta_b - want) <= 1e-10 * max(1.0, want / math.pi)
    assert p.cell_meshes[-10].cells <= 2000


@pytest.mark.parametrize("lam", [10.0, 100.0, 1000.0])
@pytest.mark.parametrize("fixture", ["v_sin", "v_exp", "v_linear", "v_sqrt", "v_rational"])
def test_phase_matches_constant_scale_oracle(fixture, lam, request):
    p = request.getfixturevalue(fixture)
    want = _constant_scale_theta_b(p, lam, 1e-13)
    got = phase(p, lam, rtol=1e-13).theta_b
    n = max(1.0, want / math.pi)
    # at lambda = 1000 the oracle's own global error reaches ~1e-10*n
    assert abs(got - want) <= 2e-10 * n


@pytest.mark.parametrize("lam", [1.0, 5.0, 40.0, 200.0, 800.0])
@pytest.mark.parametrize("fixture", ["v_linear", "v_sqrt", "v_rational"])
def test_conjecture_phase_matches_constant_scale_oracle(fixture, lam, request):
    # the propagator on the bulk, RK45 on the slivers at the singular ends;
    # on (1-x)/x the angle is matched at x_r with the one shot back from b
    p = request.getfixturevalue(fixture)
    want = _constant_scale_theta_b(p, lam, 1e-13)
    res = phase(p, lam, rtol=1e-13)
    n = max(1.0, want / math.pi)
    assert abs(res.theta_b - want) <= 2e-10 * n
    assert res.steps > 0 and res.cells > 0
    assert 0.0 < res.error_estimate <= 1e-13 * max(res.theta_b, math.pi)


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 1.85, 2.5, 3.0])
def test_steep_dip_counts_match_matrix(lam):
    # |V'|/(4V) exceeds lambda*sqrt(V) near the minima of V, so theta dips
    # between multiples of pi; only a downward crossing of one is a failure
    p = Potential.from_formula("1.2+1.0*sin(3*x)", 0.0, 4.0)
    res = phase(p, lam)
    t = res.theta_b / math.pi
    assert abs(t - round(t)) >= 0.05  # away from a jump, where the matrix oracle is exact
    assert res.count == count_negative(p, lam) == count_matrix(p, lam, 20000)


@pytest.mark.parametrize("n", [27, 225, 400])
def test_phase_accuracy_at_vanishing_right_end(v_rational, n):
    # V = (1-x)/x tends to 0 at b, where the angle is shot back from b by
    # RK45 and matched to the propagator's at x_r; near lambda_n ~ 2n + 1/3
    # the error at find_jump's phase tolerance (tol/10) must stay below
    # tol*n at every coupling
    errors = []
    for k in range(8):
        lam = (2.0 * n + 1.0 / 3.0) * (1.0 + 1e-12 * k)
        want = phase(v_rational, lam, rtol=1e-13).theta_b
        errors.append(abs(phase(v_rational, lam, rtol=TOL / 10.0).theta_b - want))
    assert max(errors) <= TOL * n


# a singular end of each kind, and V written in the distance t to it, so that no x rounds near the end
_SLIVER_CASES = [
    ("x", 1.0, 0.0, "a", "x"),
    ("sqrt(x)", 0.5, 0.0, "a", "sqrt(x)"),
    ("(1-x)/x", -1.0, 1.0, "a", "(1-x)/x"),
    ("(1-x)/x", -1.0, 1.0, "b", "x/(1-x)"),
    ("x/(1-x)", 1.0, -1.0, "a", "x/(1-x)"),
    ("x/(1-x)", 1.0, -1.0, "b", "(1-x)/x"),
    ("1/sqrt(1-x)", 0.0, -0.5, "b", "1/sqrt(x)"),
]


def _sliver_oracle(q, lam, t1, rtol):
    """The angle at t1, on the scale lam sqrt(V), of the solution of u'' = -lam^2 V(t) u vanishing at t = 0.

    RK45 on theta' = lam sqrt(V) + (V_t/(4V)) sin(2 theta), started from
    u ~ t where lam^2 V t^2 <= _DELTA_TOL, independently of the ladders'
    Bessel seeds and of the collocation cells.
    """
    jet, fv = expr._scalar_jet2(q.ast), q.value_fn
    t0 = t1
    while lam * lam * fv(t0) * t0 * t0 > _DELTA_TOL:
        t0 *= 0.5

    def rhs(t, th):
        v, dv, _ = jet(t)
        return lam * math.sqrt(v) + 0.25 * dv / v * math.sin(2.0 * th)

    return _rk45(rhs, t0, math.atan(lam * math.sqrt(fv(t0)) * t0), t1, rtol, rtol * math.pi, 10**8)[0]


@pytest.mark.parametrize("lam", [10.0, 100.0, 470.0, 1900.0, 4700.0])
@pytest.mark.parametrize("source,gamma_a,gamma_b,end,in_t", _SLIVER_CASES)
def test_slivers_match_rk45_oracle(source, gamma_a, gamma_b, end, in_t, lam):
    # the sliver's angle at the bulk's edge, with its check's target at rtol
    # 1e-12, against RK45 at rtol 1e-14 from the end itself; the oracle's
    # own error is its gap to RK45 at 1e-13.  Measured over lambda = 1..5000
    # and rtol 1e-10..1e-13, the deviation reads at most 0.72 of the bars
    p = Potential.from_formula(source, 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=gamma_a, gamma_b=gamma_b)
    gamma = gamma_a if end == "a" else gamma_b
    q = Potential.from_formula(in_t, 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=gamma, gamma_b=0.0)
    rtol = 1e-12
    target = oscillation._SEED_SHARE * rtol * max(lam * bulk_mesh(p, rtol).length, math.pi)
    ladder = oscillation._ladder(p, end)
    theta, cells, _, error = oscillation._slivers([(ladder, lam, target)])[0]
    t1 = abs(ladder.x[0] - (p.a if end == "a" else p.b))
    want = _sliver_oracle(q, lam, t1, 1e-14)
    own = abs(want - _sliver_oracle(q, lam, t1, 1e-13))
    assert abs(theta - want) <= error + own
    assert 0 < cells and error < target
