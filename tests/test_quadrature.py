import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sturmjumps.potential import Potential, chebyshev_grid
from sturmjumps.quadrature import (
    QuadratureError,
    integrate_sqrt_v,
    integrate_sqrt_v_segments,
    xi_of_x,
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
    # b = 1, which no node can reach: the leading behaviour (1-x)**(-1/2)
    # carries the last stretch, and D comes out as pi/2
    p = Potential.from_formula("x/(1-x)", 0.0, 1.0, regularity="conjecture", gamma_a=1.0, gamma_b=-1.0)
    res = integrate_sqrt_v(p, 0.0, 1.0, 1e-12)
    assert abs(res.value - math.pi / 2.0) <= res.abs_error_estimate <= 1e-11
    # a quadrature that converges does not take that path
    q = Potential.from_formula("(1-x)/x", 0.0, 1.0, regularity="conjecture", gamma_a=-1.0, gamma_b=1.0)
    assert integrate_sqrt_v(q, 0.0, 1.0, 1e-12).value == 1.5707963267948966


def test_xi_of_x_values(v_one, v_four, v_linear):
    assert xi_of_x(v_one, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert xi_of_x(v_four, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert xi_of_x(v_linear, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert xi_of_x(v_one, 0.0) == 0.0


@given(st.floats(min_value=0.2, max_value=2.8))
def test_additivity_at_interior_split(v_sin, x_mid):
    tol = 1e-10
    whole = integrate_sqrt_v(v_sin, 0.0, 3.0, tol).value
    left = integrate_sqrt_v(v_sin, 0.0, x_mid, tol).value
    right = integrate_sqrt_v(v_sin, x_mid, 3.0, tol).value
    assert abs(whole - left - right) <= 3.0 * tol


def test_xi_strictly_increasing(v_rational):
    xs = np.linspace(0.05, 0.95, 19)
    xis = [xi_of_x(v_rational, float(x), 1e-10) for x in xs]
    assert all(b > a for a, b in zip(xis, xis[1:]))


def test_theorem_class_phase_length_lower_bound(v_sin):
    d = integrate_sqrt_v(v_sin, 0.0, 3.0, 1e-12).value
    assert d >= (3.0 - 0.0) * math.sqrt(v_sin.c_lower)


def test_negative_potential_is_an_error():
    p = Potential.from_formula("sin(x)", 0.0, 6.0)  # dips negative past pi
    with pytest.raises(QuadratureError, match="negative|below"):
        integrate_sqrt_v(p, 0.0, 6.0, 1e-10)


def test_nonconvergence_is_a_hard_error():
    # a million radians of oscillation on [0, 1] outrun tanh-sinh's last level
    p = Potential.from_formula("2+sin(1000000*x)", 0.0, 1.0)
    with pytest.raises(QuadratureError, match="level"):
        integrate_sqrt_v(p, 0.0, 1.0, 1e-12)


def test_bad_bounds_rejected(v_one):
    with pytest.raises(ValueError):
        integrate_sqrt_v(v_one, 2.0, 1.0, 1e-10)
    with pytest.raises(ValueError):
        integrate_sqrt_v(v_one, 0.0, 10.0, 1e-10)
    with pytest.raises(ValueError):
        integrate_sqrt_v(v_one, 0.0, 1.0, -1e-10)


def _segments_vs_tanh_sinh(p, xs, tol):
    seg = integrate_sqrt_v_segments(p, xs, tol)
    ts = [integrate_sqrt_v(p, float(x0), float(x1), tol).value for x0, x1 in zip(xs, xs[1:])]
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
    with pytest.raises(QuadratureError, match="below half the validated lower bound"):
        integrate_sqrt_v_segments(p, [0.0, 3.0, 6.0])
    with pytest.raises(QuadratureError, match="below half the validated lower bound"):
        integrate_sqrt_v(p, 0.0, 6.0)
    # exp overflows past x ~ 0.71: numpy gives inf, the scalar path raises
    p = Potential.from_formula("exp(1000*x)", 0.0, 1.0, c_lower=1.0)
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_sqrt_v_segments(p, [0.0, 0.5, 1.0])
    with pytest.raises(QuadratureError, match="evaluation failed"):
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
