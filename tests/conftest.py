import math

import mpmath
import pytest
from hypothesis import settings

from sturmjumps.expr import Binary, Number, Symbol, Unary, parse
from sturmjumps.potential import Potential, Regularity

settings.register_profile("ci", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def v_one():
    return Potential.from_formula("1", 0.0, math.pi)


@pytest.fixture(scope="session")
def v_four():
    return Potential.from_formula("4", 0.0, 1.0)


@pytest.fixture(scope="session")
def v_sin():
    return Potential.from_formula("2+sin(x)", 0.0, 3.0)


@pytest.fixture(scope="session")
def v_exp():
    return Potential.from_formula("exp(x)", 0.0, 1.0)


@pytest.fixture(scope="session")
def v_linear():
    return Potential.from_formula(
        "x", 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=1.0, gamma_b=0.0
    )


@pytest.fixture(scope="session")
def v_rational():
    return Potential.from_formula(
        "(1-x)/x", 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=-1.0, gamma_b=1.0
    )


@pytest.fixture(scope="session")
def v_sqrt():
    return Potential.from_formula(
        "sqrt(x)", 0.0, 1.0, regularity=Regularity.CONJECTURE, gamma_a=0.5, gamma_b=0.0
    )


# ---------------------------------------------------------------------------
# independent high-precision evaluator: the finite-difference oracle for the
# jets must not share the double-precision arithmetic it is checking
# ---------------------------------------------------------------------------

_MP_FUNCS = {
    "sqrt": mpmath.sqrt,
    "exp": mpmath.exp,
    "log": mpmath.log,
    "sin": mpmath.sin,
    "cos": mpmath.cos,
}


def mp_value(node, x):
    if isinstance(node, Number):
        return mpmath.mpf(node.value)
    if isinstance(node, Symbol):
        if node.name == "x":
            return x
        return mpmath.pi if node.name == "pi" else mpmath.e
    if isinstance(node, Unary):
        if node.op == "neg":
            return -mp_value(node.arg, x)
        return _MP_FUNCS[node.op](mp_value(node.arg, x))
    a, b = mp_value(node.lhs, x), mp_value(node.rhs, x)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return a ** b


def mp_jet(node, x):
    """(V, V', V'') at x from mpmath.diff of mp_value at 40 digits, rounded to floats."""
    with mpmath.workdps(40):
        return tuple(float(mpmath.diff(lambda t: mp_value(node, t), mpmath.mpf(x), k)) for k in range(3))


def fd_derivatives(source, x, h=None):
    """Central finite differences of the formula value at 40-digit precision."""
    ast = parse(source)
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        step = mpmath.mpf(h) if h is not None else mpmath.mpf(1e-5) * max(1.0, abs(x))
        f_p = mp_value(ast, xm + step)
        f_m = mp_value(ast, xm - step)
        f_0 = mp_value(ast, xm)
        d1 = (f_p - f_m) / (2 * step)
        d2 = (f_p - 2 * f_0 + f_m) / (step * step)
        return float(f_0), float(d1), float(d2)
