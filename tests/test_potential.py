import math

import pytest
from hypothesis import given, strategies as st

from sturmjumps.expr import EvalDomainError
from sturmjumps.potential import (
    Potential,
    Regularity,
    ValidationError,
    endpoint_constant,
)


def test_constant_potential_validates(v_one):
    report = v_one.validate()
    assert report.ok
    assert report.min_v == pytest.approx(1.0)
    assert report.max_abs_d2 == 0.0
    assert v_one.c_lower == pytest.approx(1.0)


def test_theorem_class_rejects_vanishing_potential():
    # V = x touches zero at the left endpoint, so no positive lower bound exists
    p = Potential.from_formula("x", 0.0, 1.0)
    with pytest.raises(ValidationError, match="positive"):
        p.validate()


def test_zero_potential_rejected_upstream():
    p = Potential.from_formula("0", 0.0, 1.0)
    with pytest.raises(ValidationError):
        p.validate()


def test_constant_domain_error_fails_construction():
    # the lower-bound probe must raise, not read a NaN from the x-free subtree
    with pytest.raises(EvalDomainError) as err:
        Potential.from_formula("log(0-1)", 0.0, 1.0)
    assert err.value.subexpr == "log(0.0-1.0)"


def test_theorem_class_flags_undercut_lower_bound():
    p = Potential.from_formula("1+x", 0.0, 1.0, c_lower=2.0)
    report = p.validate()
    assert not report.ok
    assert any("lower bound" in m for m in report.messages)


def test_conjecture_class_exponent_fit(v_rational):
    report = v_rational.validate()
    assert report.ok
    assert abs(report.fitted_gamma_a - (-1.0)) < 0.1
    assert abs(report.fitted_gamma_b - 1.0) < 0.1


def test_conjecture_class_flags_wrong_exponents():
    p = Potential.from_formula(
        "(1-x)/x", 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=0.5, gamma_b=1.0
    )
    report = p.validate()
    assert not report.ok
    assert any("left endpoint" in m for m in report.messages)


def test_validation_needs_enough_samples(v_one):
    with pytest.raises(ValueError):
        v_one.validate(samples=50)


def test_construction_invariants():
    with pytest.raises(ValueError):
        Potential.from_formula("1", 1.0, 0.0)
    with pytest.raises(ValueError):
        Potential.from_formula("1", 0.0, math.inf)
    with pytest.raises(ValueError):
        Potential.from_formula("x", 0.0, 1.0, regularity=Regularity.CONJECTURE)
    with pytest.raises(ValueError):
        Potential.from_formula(
            "x", 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=-2.5, gamma_b=0.0
        )


def test_theorem_gamma_defaults_to_zero(v_sin):
    assert v_sin.gamma_a == 0.0 and v_sin.gamma_b == 0.0


def test_endpoint_constant_reference_values():
    assert endpoint_constant(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert endpoint_constant(-1.0, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert endpoint_constant(1.0, 0.0) == pytest.approx(-1.0 / 12.0, rel=1e-14)
    assert endpoint_constant(0.5, 0.0) == pytest.approx(-1.0 / 20.0, rel=1e-13)


def test_endpoint_constant_domain():
    with pytest.raises(ValueError):
        endpoint_constant(-2.0, 0.0)
    with pytest.raises(ValueError):
        endpoint_constant(0.0, -3.0)


@given(
    st.floats(min_value=-1.9, max_value=100.0),
    st.floats(min_value=-1.9, max_value=100.0),
)
def test_endpoint_constant_symmetric(ga, gb):
    assert endpoint_constant(ga, gb) == pytest.approx(endpoint_constant(gb, ga), rel=1e-12)


def test_endpoint_constant_compact_support_limit():
    assert abs(endpoint_constant(1e6, 1e6) - (-0.5)) < 1e-5


def test_pickle_after_phase_keeps_theta():
    import pickle

    from sturmjumps.oscillation import phase

    p = Potential.from_formula("2+sin(x)", 0.0, 3.0)
    before = phase(p, 40.0).theta_b  # fills the compiled-function caches
    clone = pickle.loads(pickle.dumps(p))
    assert phase(clone, 40.0).theta_b == before


def test_pickle_carries_the_fields_and_no_cache():
    import pickle
    from dataclasses import fields
    from functools import cached_property

    from sturmjumps.oscillation import phase

    caches = {name for name, attr in vars(Potential).items() if isinstance(attr, cached_property)}
    assert caches >= {"value_fn", "value_fn_np", "jet2_fn", "cell_meshes", "sliver_ladders"}
    for p in (
        Potential.from_formula("2+sin(x)", 0.0, 3.0),
        Potential.from_formula("x", 0.0, 1.0, regularity="conjecture", gamma_a=1.0, gamma_b=0.0),
    ):
        phase(p, 40.0)  # a mesh, and on the conjecture class the ladder of its singular end
        for name in caches:
            getattr(p, name)
        assert p.cell_meshes
        assert bool(p.sliver_ladders) == (p.regularity is Regularity.CONJECTURE)
        clone = pickle.loads(pickle.dumps(p))
        assert clone == p
        assert set(clone.__dict__) == {f.name for f in fields(Potential)}
        assert phase(clone, 40.0).theta_b == phase(p, 40.0).theta_b
