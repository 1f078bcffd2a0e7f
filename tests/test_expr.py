import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import fd_derivatives, mp_jet
from sturmjumps.expr import (
    Binary,
    EvalDomainError,
    FormulaError,
    Number,
    Symbol,
    Unary,
    compile_jet2,
    compile_value,
    eval_jet2,
    parse,
    serialize,
)


def test_parse_basic_shapes():
    assert parse("2+sin(x)") == Binary("+", Number(2.0), Unary("sin", Symbol("x")))
    assert parse("(1-x)/x") == Binary("/", Binary("-", Number(1.0), Symbol("x")), Symbol("x"))


def test_power_right_associative():
    assert eval_jet2(parse("2^3^2"), 0.0).v == 512.0


def test_unary_minus_binds_tighter_than_power_base():
    # -x^2 is (-x)^2 under this grammar
    assert eval_jet2(parse("-x^2"), 3.0).v == 9.0
    assert eval_jet2(parse("-(x^2)"), 3.0).v == -9.0


def test_named_constants():
    assert eval_jet2(parse("pi"), 0.0).v == math.pi
    assert eval_jet2(parse("e"), 0.0).v == math.e


@pytest.mark.parametrize(
    "source,offset_of",
    [("2+", 2), ("2*(x", 4), ("sin(x))", 6)],
)
def test_syntax_errors_carry_offsets(source, offset_of):
    with pytest.raises(FormulaError) as err:
        parse(source)
    assert err.value.offset == offset_of


def test_unknown_identifier_and_arity_errors():
    with pytest.raises(FormulaError, match="unknown identifier"):
        parse("2*y")
    with pytest.raises(FormulaError, match="unknown function"):
        parse("foo(x)")
    with pytest.raises(FormulaError, match="argument"):
        parse("sin + 2")
    with pytest.raises(FormulaError, match="not a function"):
        parse("pi(x)")
    with pytest.raises(FormulaError):
        parse("")


def test_jet_examples():
    v, d1, d2 = eval_jet2(parse("2+sin(x)"), 0.0)
    assert (v, d1, d2) == (2.0, 1.0, 0.0)
    v, d1, d2 = eval_jet2(parse("x^2"), 3.0)
    assert (v, d1, d2) == (9.0, 6.0, 2.0)
    v, d1, d2 = eval_jet2(parse("(1-x)/x"), 0.5)
    assert (v, d1, d2) == pytest.approx((1.0, -4.0, 16.0), rel=1e-14)


def test_jets_without_x_are_exactly_constant():
    for source in ("2", "pi", "exp(1)", "2^3^2", "sin(pi/4)+cos(e)"):
        jet = eval_jet2(parse(source), 1.7)
        assert jet.d1 == 0.0 and jet.d2 == 0.0


@pytest.mark.parametrize(
    "source,x,match",
    [
        ("log(x)", -1.0, "logarithm"),
        ("sqrt(x)", -2.0, "square root"),
        ("1/x", 0.0, "division by zero"),
        ("(-2)^x", 0.5, "positive base"),
        ("x^0.5", -2.0, "non-integer exponent"),
        ("exp(x)", 1e6, "overflow"),
    ],
)
def test_domain_errors(source, x, match):
    with pytest.raises(EvalDomainError, match=match):
        eval_jet2(parse(source), x)


def test_domain_error_reports_subexpression_and_x():
    with pytest.raises(EvalDomainError) as err:
        eval_jet2(parse("2+log(x-1)"), 0.5)
    assert err.value.subexpr == "log(x-1.0)"
    assert err.value.x == 0.5


def test_unknown_function_in_a_built_ast_is_a_domain_error():
    ast = Binary("+", Unary("abs", Symbol("x")), Number(1.0))
    for evaluate in (lambda: eval_jet2(ast, 0.5), lambda: compile_jet2(ast)(np.array([0.5]))):
        with pytest.raises(EvalDomainError, match="unknown function 'abs'") as err:
            evaluate()
        assert (err.value.subexpr, err.value.x) == ("abs(x)", 0.5)


_FD_CASES = [
    ("sqrt(x)", 0.3, 40.0),
    ("exp(x)", -3.0, 3.0),
    ("log(x)", 0.2, 40.0),
    ("sin(x)", -6.0, 6.0),
    ("cos(x)", -6.0, 6.0),
    ("x^2.5", 0.2, 5.0),
    ("2^x", -3.0, 3.0),
    ("(1-x)/x", 0.1, 0.9),
    ("exp(x)*sin(2*x)+cos(x)/(2+x)", -1.9, 2.0),
    ("sqrt(1+x^2)*log(2+cos(x))", -4.0, 4.0),
]


@pytest.mark.parametrize("source,lo,hi", _FD_CASES)
def test_jets_match_finite_differences(source, lo, hi):
    ast = parse(source)
    for i in range(25):
        x = lo + (hi - lo) * (i + 0.5) / 25
        jet = eval_jet2(ast, x)
        _, fd1, fd2 = fd_derivatives(source, x)
        assert abs(jet.d1 - fd1) <= 1e-6 * max(1.0, abs(jet.d1), abs(fd1))
        assert abs(jet.d2 - fd2) <= 1e-6 * max(1.0, abs(jet.d2), abs(fd2))


@pytest.mark.parametrize("source,lo,hi", _FD_CASES)
def test_compiled_value_matches_jets(source, lo, hi):
    ast = parse(source)
    fn = compile_value(ast)
    for i in range(25):
        x = lo + (hi - lo) * (i + 0.5) / 25
        assert fn(x) == pytest.approx(eval_jet2(ast, x).v, rel=1e-14, abs=1e-300)


def test_compiled_vectorized_matches_scalar():
    ast = parse("2+sin(3*x)/(1+x^2)")
    fn = compile_value(ast)
    fnp = compile_value(ast, vectorized=True)
    xs = np.linspace(-2, 2, 41)
    out = fnp(xs)
    for x, v in zip(xs, out):
        assert v == pytest.approx(fn(float(x)), rel=1e-14)


_JET_CASES = _FD_CASES + [("x^2", -2.0, 2.0), ("(1+x)^(-4)", 0.0, 1.0), ("x^x", 0.1, 3.0), ("1", 0.0, 1.0)]


def _near(got, want):
    """Within 1e-13 of a 40-digit reference, relative to its size, or absolute below 1."""
    return all(abs(g - w) <= 1e-13 * max(1.0, abs(w)) for g, w in zip(got, want))


@pytest.mark.parametrize("source,lo,hi", _JET_CASES)
def test_jets_match_mpmath(source, lo, hi):
    # mp_jet differentiates the formula in mpmath, independently of the jet code
    ast = parse(source)
    xs = lo + (hi - lo) * (np.arange(25) + 0.5) / 25
    arrays = compile_jet2(ast)(xs)
    for i, x in enumerate(xs.tolist()):
        want = mp_jet(ast, x)
        assert _near(eval_jet2(ast, x), want), (x, eval_jet2(ast, x), want)
        assert _near([float(part[i]) for part in arrays], want), x


@pytest.mark.parametrize("source,lo,hi", _JET_CASES)
def test_compiled_jet2_matches_jets(source, lo, hi):
    ast = parse(source)
    xs = lo + (hi - lo) * (np.arange(25) + 0.5) / 25
    got = compile_jet2(ast)(xs.reshape(5, 5))
    assert all(part.shape == (5, 5) for part in got)
    for x, v, d1, d2 in zip(xs, *(part.ravel() for part in got)):
        jet = eval_jet2(ast, float(x))
        assert (v, d1, d2) == pytest.approx(tuple(jet), rel=1e-13, abs=1e-300)


# (message, subexpression) of each failure, as the tree-walking evaluator
# that the compiled jets replaced reported them
_DOMAIN_ERRORS = {
    ("log(x)", -1.0): ("logarithm of a non-positive value", "log(x)"),
    ("sqrt(x)", -2.0): ("square root of a negative value", "sqrt(x)"),
    ("sqrt(x)", 0.0): ("square root not differentiable at zero", "sqrt(x)"),
    ("1/x", 0.0): ("division by zero", "1.0/x"),
    ("(-2)^x", 0.5): ("variable exponent requires a positive base", "-2.0^x"),
    ("x^0.5", -2.0): ("negative base with non-integer exponent", "x^0.5"),
    ("x^0.5", 0.0): ("power not twice differentiable at zero base", "x^0.5"),
    ("x^(-2)", 0.0): ("power not twice differentiable at zero base", "x^-2.0"),
    ("(x-x)^(-1)", 0.3): ("zero raised to a negative power", "(x-x)^-1.0"),
    ("exp(x)", 1e6): ("exp overflow", "exp(x)"),
    ("exp(x)^10", 100.0): ("power out of domain", "exp(x)^10.0"),
    ("x^x", 0.0): ("variable exponent requires a positive base", "x^x"),
    ("2+log(x-1)", 0.5): ("logarithm of a non-positive value", "log(x-1.0)"),
    # subtrees without x fail at every x, where they stand in the evaluation order
    ("log(0-1)", 0.5): ("logarithm of a non-positive value", "log(0.0-1.0)"),
    ("1/(1-1)+x", 0.5): ("division by zero", "1.0/(1.0-1.0)"),
    ("x+log(0-1)", 0.5): ("logarithm of a non-positive value", "log(0.0-1.0)"),
    ("x*sqrt(0-2)", 0.5): ("square root of a negative value", "sqrt(0.0-2.0)"),
    ("exp(1000)+x", 0.5): ("exp overflow", "exp(1000.0)"),
}


@pytest.mark.parametrize("source,x", list(_DOMAIN_ERRORS))
def test_compiled_jet2_raises_where_jets_raise(source, x):
    ast = parse(source)
    message, subexpr = _DOMAIN_ERRORS[source, x]
    with pytest.raises(EvalDomainError) as scalar:
        eval_jet2(ast, x)

    def fine(point):
        try:
            eval_jet2(ast, point)
        except EvalDomainError:
            return False
        return True

    # the failing point is named among points where the jets are fine
    xs = [pt for pt in (3.0, 2.0) if fine(pt)]
    with pytest.raises(EvalDomainError) as arrays:
        compile_jet2(ast)(np.array(xs[:1] + [x] + xs[1:]))
    for err in (scalar.value, arrays.value):
        assert (str(err), err.subexpr, err.x) == (f"{message} in '{subexpr}' at x={x!r}", subexpr, x)


def test_compiled_jet2_special_zero_bases():
    # flat zero bases are allowed where the tree-walking evaluator allowed them
    for source, want in (
        ("x^2", (0.0, 0.0, 2.0)),
        ("(x-x)^0.5", (0.0, 0.0, 0.0)),
        ("sqrt(x-x)", (0.0, 0.0, 0.0)),
        ("x^3", (0.0, 0.0, 0.0)),
        ("(x^2)^2+1", (1.0, 0.0, 0.0)),
    ):
        ast = parse(source)
        got = compile_jet2(ast)(np.array([0.0]))
        assert tuple(float(part[0]) for part in got) == tuple(eval_jet2(ast, 0.0)) == want


# -- structural round-trip ---------------------------------------------------

_leaves = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False).map(Number),
    st.sampled_from(["x", "pi", "e"]).map(Symbol),
)


def _extend(children):
    unary = st.builds(
        Unary, st.sampled_from(["neg", "sqrt", "exp", "log", "sin", "cos"]), children
    )
    binary = st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^"]), children, children)
    return st.one_of(unary, binary)


_asts = st.recursive(_leaves, _extend, max_leaves=64)


@given(_asts)
def test_serialize_parse_round_trip(ast):
    assert parse(serialize(ast)) == ast
