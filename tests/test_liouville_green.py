import math
import random

import numpy as np
import pytest

from conftest import fd_derivatives
from sturmjumps.expr import eval_jet2
from sturmjumps.liouville_green import count_bracket, lg_data, transformed_potential, u_from_jet
from sturmjumps.oscillation import AtJumpAmbiguity, count_negative
from sturmjumps.potential import Potential, chebyshev_grid
from sturmjumps.propagator import bulk_mesh
from sturmjumps.quadrature import integrate_sqrt_v


def test_constant_potential_transform_vanishes(v_one):
    for x in (0.3, 1.0, 2.5):
        assert transformed_potential(v_one, x) == 0.0


def test_transform_value_at_stationary_point():
    p = Potential.from_formula("x^2+1", -1.0, 1.0)
    # V(0)=1, V'(0)=0, V''(0)=2: U(0) = -(1/4)*2 = -1/2
    assert transformed_potential(p, 0.0) == pytest.approx(-0.5, rel=1e-14)


def test_transform_exponential_closed_form(v_exp):
    # V = e^x gives U = (1/16) e^{-x}: d^2/dx^2 (e^{-x/4}) = e^{-x/4}/16,
    # multiplied by V^{-3/4} = e^{-3x/4}
    for x in np.linspace(0.0, 1.0, 100):
        u = transformed_potential(v_exp, float(x))
        assert u == pytest.approx(math.exp(-x) / 16.0, rel=1e-12)


def test_transform_matches_finite_differences(v_sin):
    # U = V^{-3/4} (V^{-1/4})'' via a high-precision FD of the quarter-root
    for x in (0.4, 1.3, 2.2, 2.9):
        v, _, _ = fd_derivatives("2+sin(x)", x)
        _, _, w2 = fd_derivatives("(2+sin(x))^(-0.25)", x)
        expected = v ** -0.75 * w2
        assert transformed_potential(v_sin, x) == pytest.approx(expected, rel=1e-6)


def test_transform_requires_theorem_class(v_rational):
    with pytest.raises(ValueError):
        transformed_potential(v_rational, 0.5)


def test_lg_data_constant(v_one):
    lg = lg_data(v_one, 256)
    assert lg.d == pytest.approx(math.pi, abs=1e-10)
    assert lg.c == 0.0
    assert all(u == 0.0 for u in lg.u)


def test_lg_data_exponential(v_exp):
    lg = lg_data(v_exp, 256)
    assert lg.d == pytest.approx(2.0 * (math.exp(0.5) - 1.0), abs=1e-10)
    # max |U| sits at x = 0, which the Lobatto grid includes exactly
    assert lg.c == pytest.approx(1.05 / 16.0, rel=1e-12)
    xis = lg.xi.tolist()
    assert all(b > a for a, b in zip(xis, xis[1:]))
    assert xis[0] == 0.0
    assert xis[-1] == pytest.approx(lg.d, abs=1e-8)
    assert all(abs(u) <= lg.c for u in lg.u)
    # U sampled through the compiled jet, bit for bit transformed_potential's
    assert lg.u.tolist() == [transformed_potential(v_exp, x) for x in lg.x.tolist()]


def test_lg_data_grid_ends_are_the_interval_ends():
    # 0.5*(a+b) - 0.5*(b-a) is one ulp below a = 3.4442
    a, b = 3.4442, 3.8235
    p = Potential.from_formula("2+sin(x)", a, b)
    lg = lg_data(p, 200)
    assert (lg.x[0], lg.x[-1]) == (a, b)
    assert lg.xi[-1] == pytest.approx(lg.d, abs=1e-12)
    rng = np.random.default_rng(7)
    for lo, width in zip(rng.uniform(-10, 10, 500).round(4), rng.uniform(0.01, 10, 500).round(4)):
        xs = chebyshev_grid(float(lo), float(lo + width), 200, include_endpoints=True)
        assert (xs[0], xs[-1]) == (lo, lo + width)


def test_lg_data_diagnostics(v_exp):
    lg = lg_data(v_exp, 256)
    assert (lg.xi_evaluations, lg.xi_bisections) == (30 * 255, 0)
    assert lg.d_evaluations == integrate_sqrt_v(v_exp, 0.0, 1.0).evaluations
    # segments holding a few periods of sin(10x) are bisected
    p = Potential.from_formula("2+sin(10*x)", 0.0, 50.0)
    lg = lg_data(p, 200)
    assert lg.xi_bisections > 0
    assert lg.xi_evaluations == 30 * 199 + 40 * lg.xi_bisections
    assert lg.xi[-1] == pytest.approx(lg.d, abs=1e-10)


def test_lg_data_guards(v_one, v_rational):
    with pytest.raises(ValueError):
        lg_data(v_one, 100)
    with pytest.raises(ValueError):
        lg_data(v_rational, 512)


def _agreement_potentials():
    # criterion 3's draws, the oscillating pair on [0, 4], and the two closed forms
    rng = random.Random(42)
    sources = []
    for _ in range(8):
        c0 = rng.uniform(1.0, 3.0)
        c1 = rng.uniform(0.0, c0 - 0.5)
        c2 = rng.uniform(0.5, 3.0)
        sources.append((f"{c0!r}+{c1!r}*sin({c2!r}*x)", rng.uniform(1.0, 5.0)))
    sources += [("2+sin(x)", 4.0), ("1.2+sin(3*x)", 4.0), ("exp(x)", 1.0), ("(1+x)^(-4)", 1.0)]
    return [Potential.from_formula(source, 0.0, b) for source, b in sources]


def test_lg_data_u_matches_the_scalar_jet():
    # the numpy jet and the scalar jet may round V, V' and V'' apart, and U's
    # two terms cancel: on (1+x)^(-4) U is 0 and both give rounding noise, so
    # the bound is on the scale of the terms, (|V''|/4 + 5 V'^2/(16 V)) / V^2
    for p in _agreement_potentials():
        lg = lg_data(p, 512)
        scalar, scale = [], []
        for x in lg.x.tolist():
            v, d1, d2 = eval_jet2(p.ast, x)
            scalar.append(u_from_jet(v, d1, d2))
            scale.append((abs(d2) / 4.0 + 5.0 * d1 * d1 / (16.0 * v)) / (v * v))
        for u, want, terms in zip(lg.u.tolist(), scalar, scale):
            assert abs(u - want) <= 1e-14 * terms, (p.source, u, want)
        assert abs(lg.c - 1.05 * max(map(abs, scalar))) <= 1.05e-14 * max(scale), p.source


def test_lg_data_raises_where_u_is_not_finite():
    # V(0)^2 = 1e-340 underflows to 0, so U(0) = -(1/2)/0; C must not come back as inf
    p = Potential.from_formula("1e-170+x^2", 0.0, 1.0, c_lower=1e-171)
    with pytest.raises(FloatingPointError, match="x=0.0"):
        lg_data(p, 512)
    with pytest.raises(FloatingPointError):
        transformed_potential(p, 0.0)
    assert math.isfinite(transformed_potential(p, 0.5))


def _u_integral(p, rtol=1e-11):
    # the root finder's start: sum of h * Ubar over the coarse cells of the
    # mesh its phase calls sweep (find_jump's default tol 1e-10 over 10)
    mesh = bulk_mesh(p, rtol)
    assert mesh.u_integral == float(mesh.h[: mesh.cells] @ mesh.ubar[: mesh.cells])
    return mesh.u_integral


def test_u_integral_matches_trapezoid_over_samples(v_sin, v_exp):
    # the oracle integrates lg_data's sampled U over xi by the trapezoid rule
    for p in (v_sin, v_exp):
        lg = lg_data(p, 512)
        xi, u = lg.xi, lg.u
        trapezoid = float(np.sum(0.5 * (u[1:] + u[:-1]) * np.diff(xi)))
        assert _u_integral(p) / lg.d == pytest.approx(trapezoid / lg.d, abs=1e-6)
    # V = e^x: U = e^{-x}/16 and dxi = e^{x/2} dx, so the integral is (1 - e^{-1/2})/8
    assert _u_integral(v_exp) == pytest.approx((1.0 - math.exp(-0.5)) / 8.0, rel=1e-9)


def test_u_integral_vanishes_where_u_vanishes(v_one):
    # V = (1+x)^(-4) has U = 0 identically, though its two terms in U are not 0
    assert abs(_u_integral(v_one)) <= 1e-15
    assert abs(_u_integral(Potential.from_formula("(1+x)^(-4)", 0.0, 1.0))) <= 1e-15


def test_bracket_constant_potential(v_one):
    lg = lg_data(v_one, 256)
    assert count_bracket(lg, 2.5) == (2, 2)


def test_bracket_requires_lambda_above_sqrt_c(v_exp):
    lg = lg_data(v_exp, 256)
    with pytest.raises(ValueError):
        count_bracket(lg, 0.5 * math.sqrt(lg.c))


def test_bracket_contains_count(v_sin, v_exp):
    for p in (v_sin, v_exp):
        lg = lg_data(p, 256)
        for lam in np.geomspace(1.2 * math.sqrt(lg.c), 100.0, 25):
            lam = float(lam)
            try:
                n = count_negative(p, lam, rtol=1e-9)
            except AtJumpAmbiguity:
                lam *= 1.0 + 3e-7
                n = count_negative(p, lam, rtol=1e-9)
            lower, upper = count_bracket(lg, lam)
            assert lower <= n <= upper


def test_bracket_width_shrinks(v_exp):
    lg = lg_data(v_exp, 256)
    for lam in np.geomspace(2.0 * math.sqrt(lg.c), 300.0, 20):
        lam = float(lam)
        lower, upper = count_bracket(lg, lam)
        width_bound = math.ceil(lg.d * lg.c / (math.pi * math.sqrt(lam * lam - lg.c))) + 1
        assert upper - lower <= width_bound
