import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import mp_value
from sturmjumps.potential import Potential, chebyshev_grid
from sturmjumps.quadrature import (
    QuadratureError,
    integrate_sqrt_v,
    integrate_sqrt_v_segments,
)


def gauss_legendre_dyadic(f, n_halvings=80, order=64):
    """Independent oracle for integrals on (0, 1) with endpoint singularities.

    Gauss-Legendre on dyadic subintervals shrinking toward both endpoints;
    on each piece the integrand is analytic, so order-64 is exact to
    machine precision there.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = [0.5**k for k in range(n_halvings, 0, -1)]
    edges += [1.0 - 0.5**k for k in range(1, n_halvings + 1)]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        total += half * sum(w * f(mid + half * t) for t, w in zip(nodes, weights))
    return total


def test_constant_potential_full_interval(v_one):
    res = integrate_sqrt_v(v_one, 0.0, math.pi, 1e-12)
    assert res.value == pytest.approx(math.pi, abs=1e-12)
    assert res.abs_error_estimate >= 0.0
    assert res.evaluations > 0


def test_linear_potential_closed_form(v_linear):
    res = integrate_sqrt_v(v_linear, 0.0, 1.0, 1e-12)
    assert res.value == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_singular_integrand_vs_gauss_legendre_oracle(v_rational):
    ts = integrate_sqrt_v(v_rational, 0.0, 1.0, 1e-12).value
    oracle = gauss_legendre_dyadic(lambda x: math.sqrt((1.0 - x) / x))
    assert abs(ts - oracle) < 1e-10
    assert abs(ts - math.pi / 2.0) < 1e-10


def test_blow_up_end_away_from_zero_integrates():
    # sqrt(x/(1-x)) holds about 2e-8 of its integral within the last ulp below
    # b = 1, which no node can reach: the leading behaviour (1-x)**(-1/2) with
    # its first correction carries the last octaves, and D comes out as pi/2
    p = Potential.from_formula("x/(1-x)", 0.0, 1.0, regularity="conjecture", gamma_a=1.0, gamma_b=-1.0)
    res = integrate_sqrt_v(p, 0.0, 1.0, 1e-12)
    assert abs(res.value - math.pi / 2.0) <= res.abs_error_estimate <= 1e-12
    q = Potential.from_formula("(1-x)/x", 0.0, 1.0, regularity="conjecture", gamma_a=-1.0, gamma_b=1.0)
    assert integrate_sqrt_v(q, 0.0, 1.0, 1e-12).value == 1.5707963267948966


_C = dict(regularity="conjecture")


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
@pytest.mark.parametrize(
    "source, b, declared, exact",
    [
        ("x", 1.0, dict(_C, gamma_a=1.0, gamma_b=0.0), 2.0 / 3.0),
        ("sqrt(x)", 1.0, dict(_C, gamma_a=0.5, gamma_b=0.0), 0.8),
        ("(1-x)/x", 1.0, dict(_C, gamma_a=-1.0, gamma_b=1.0), math.pi / 2.0),
        ("x/(1-x)", 1.0, dict(_C, gamma_a=1.0, gamma_b=-1.0), math.pi / 2.0),
        ("1/(x*(1-x))", 1.0, dict(_C, gamma_a=-1.0, gamma_b=-1.0), math.pi),
        ("x*(2-x)", 2.0, dict(_C, gamma_a=1.0, gamma_b=1.0), math.pi / 2.0),  # a half disc
        ("exp(x)", 1.0, {}, 2.0 * math.expm1(0.5)),
        ("(1+x)^(-4)", 1.0, {}, 0.5),
    ],
)
def test_phase_length_closed_forms(source, b, declared, exact, tol):
    # D on the octaves of every declared singular end and on the equal
    # segments between, against its closed form: the error estimate covers
    # the true error and stays within tol, and D is right to 1e-14 relative
    res = integrate_sqrt_v(Potential.from_formula(source, 0.0, b, **declared), 0.0, b, tol)
    assert abs(res.value - exact) <= res.abs_error_estimate <= tol
    assert abs(res.value - exact) <= 1e-14 * exact


def test_xi_of_x_values(v_one, v_four, v_linear):
    # xi(x), the integral of sqrt(V) from a to x
    assert integrate_sqrt_v(v_one, 0.0, 1.0).value == pytest.approx(1.0, abs=1e-12)
    assert integrate_sqrt_v(v_four, 0.0, 0.5).value == pytest.approx(1.0, abs=1e-12)
    assert integrate_sqrt_v(v_linear, 0.0, 1.0).value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert integrate_sqrt_v(v_linear, 0.0, 0.25).value == pytest.approx(1.0 / 12.0, abs=1e-12)


@given(st.floats(min_value=0.2, max_value=2.8))
def test_additivity_at_interior_split(v_sin, x_mid):
    tol = 1e-10
    whole = integrate_sqrt_v(v_sin, 0.0, 3.0, tol).value
    left = integrate_sqrt_v(v_sin, 0.0, x_mid, tol).value
    right = integrate_sqrt_v(v_sin, x_mid, 3.0, tol).value
    assert abs(whole - left - right) <= 3.0 * tol


def test_xi_strictly_increasing(v_rational):
    xs = np.linspace(0.05, 0.95, 19)
    xis = [integrate_sqrt_v(v_rational, 0.0, float(x), 1e-10).value for x in xs]
    assert all(b > a for a, b in zip(xis, xis[1:]))


def test_theorem_class_phase_length_lower_bound(v_sin):
    d = integrate_sqrt_v(v_sin, 0.0, 3.0, 1e-12).value
    assert d >= (3.0 - 0.0) * math.sqrt(v_sin.c_lower)


def test_negative_potential_is_an_error():
    p = Potential.from_formula("sin(x)", 0.0, 6.0)  # dips negative past pi
    with pytest.raises(QuadratureError, match="negative|below"):
        integrate_sqrt_v(p, 0.0, 6.0, 1e-10)


def test_nonconvergence_is_a_hard_error():
    # a million radians of oscillation on [0, 1] outrun the segments' last bisection
    p = Potential.from_formula("2+sin(1000000*x)", 0.0, 1.0)
    with pytest.raises(QuadratureError, match="bisections"):
        integrate_sqrt_v(p, 0.0, 1.0, 1e-12)


def test_bad_bounds_rejected(v_one):
    with pytest.raises(ValueError):
        integrate_sqrt_v(v_one, 2.0, 1.0, 1e-10)
    with pytest.raises(ValueError):
        integrate_sqrt_v(v_one, 0.0, 10.0, 1e-10)
    with pytest.raises(ValueError):
        integrate_sqrt_v(v_one, 0.0, 1.0, -1e-10)


def _segments_vs_tanh_sinh(p, xs, tol):
    # the reference is mpmath's tanh-sinh quadrature at 20 digits, of mpmath's V
    seg = integrate_sqrt_v_segments(p, xs, tol)
    with mpmath.workdps(20):
        ts = [float(mpmath.quad(lambda x: mpmath.sqrt(mp_value(p.ast, x)), [x0, x1])) for x0, x1 in zip(xs, xs[1:])]
    assert np.max(np.abs(seg.values - ts)) <= 2.0 * tol
    return seg


@pytest.mark.parametrize(
    "source, a, b",
    [
        ("1", 0.0, math.pi),  # value_fn_np returns a scalar, which must broadcast
        ("exp(x)", 0.0, 1.0),
        ("2+sin(x)", 0.0, 3.0),
        # criterion 3's first draw c0 + c1*sin(c2*x) on [0, L] (seed 42)
        ("2.2788535969157673+0.04449047188942089*sin(1.1875732959227983*x)", 0.0, 1.892842952595291),
    ],
)
def test_segments_match_tanh_sinh(source, a, b):
    p = Potential.from_formula(source, a, b)
    xs = chebyshev_grid(a, b, 200, include_endpoints=True)
    seg = _segments_vs_tanh_sinh(p, xs, 1e-12)
    # no bisection on short smooth segments: the whole and its halves, 30 nodes each
    assert (seg.evaluations, seg.bisections) == (30 * 199, 0)


def test_segments_bisect_where_the_rule_misses():
    # ~3 periods per segment near the middle of the grid: the first pass misses there
    p = Potential.from_formula("2+sin(10*x)", 0.0, 50.0)
    xs = chebyshev_grid(0.0, 50.0, 200, include_endpoints=True)
    seg = _segments_vs_tanh_sinh(p, xs, 1e-12)
    assert seg.bisections > 0
    # each bisection puts two new pieces through the halves rule, 20 nodes each
    assert seg.evaluations == 30 * 199 + 40 * seg.bisections


def test_segments_screen_v_like_the_scalar_path():
    # the declared lower bound is far above the true minimum 1 of 2+sin(x)
    p = Potential.from_formula("2+sin(x)", 0.0, 6.0, c_lower=2.5)
    with pytest.raises(QuadratureError, match="below half the lower bound c_lower = 2.5"):
        integrate_sqrt_v_segments(p, [0.0, 3.0, 6.0])
    with pytest.raises(QuadratureError, match="below half the lower bound c_lower = 2.5"):
        integrate_sqrt_v(p, 0.0, 6.0)
    # exp overflows past x ~ 0.71, where numpy gives inf
    p = Potential.from_formula("exp(1000*x)", 0.0, 1.0, c_lower=1.0)
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_sqrt_v_segments(p, [0.0, 0.5, 1.0])
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_sqrt_v(p, 0.0, 1.0)


def test_segments_nonconvergence_is_a_hard_error():
    # ~600 periods in the finest pieces: the rule misses at every depth
    p = Potential.from_formula("2+sin(1000000*x)", 0.0, 1.0)
    with pytest.raises(QuadratureError, match="bisections"):
        integrate_sqrt_v_segments(p, [0.0, 0.5, 1.0])


def test_segments_bad_points_rejected(v_one):
    for xs in ([1.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [-1.0, 1.0], [0.0, 10.0]):
        with pytest.raises(ValueError):
            integrate_sqrt_v_segments(v_one, xs)
    with pytest.raises(ValueError):
        integrate_sqrt_v_segments(v_one, [0.0, 1.0], 0.0)


def test_failing_point_evaluation_names_its_node():
    # V = sqrt(x - 1e-6) is negative next to a = 0, where the octaves' last
    # level reads V and V' from the jet, whose error names the node; phase
    # integrates the same octaves for its ladder
    from sturmjumps.oscillation import PhaseError, phase

    p = Potential.from_formula("sqrt(x-1e-6)", 0.0, 1.0, regularity="conjecture", gamma_a=0.5, gamma_b=0.0)
    node = "square root of a negative value in 'sqrt(x-1e-06)'"
    with pytest.raises(QuadratureError, match=re.escape(node)):
        integrate_sqrt_v(p, 0.0, 1.0)
    with pytest.raises(PhaseError, match=re.escape(node)):
        phase(p, 50.0)
