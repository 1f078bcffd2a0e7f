"""Formula parsing and second-order forward-mode differentiation.

Potentials are supplied as text formulas in the variable ``x``, e.g.
``"2+sin(x)"`` or ``"(1-x)/x"``.  ``parse`` builds an immutable AST,
``eval_jet2`` evaluates value, first and second derivative in a single
pass by propagating ``(v, d1, d2)`` jets with exact chain rules, and
``compile_value`` / ``compile_value_d1`` emit fast plain-value and
value-and-slope callables for inner loops, and ``compile_jet2`` emits the
``(v, d1, d2)`` jets over whole numpy arrays of points.

Grammar (whitespace ignored)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?          # '^' is right-associative
    unary  := '-' unary | atom
    atom   := number | 'x' | 'pi' | 'e' | ident '(' expr ')' | '(' expr ')'

Unary minus binds tighter than a '^' base, so ``-x^2`` means ``(-x)^2``.
Functions: sqrt, exp, log, sin, cos.  ``abs`` is deliberately absent: it
would silently break twice-differentiability.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

__all__ = [
    "Number",
    "Symbol",
    "Unary",
    "Binary",
    "ExprAst",
    "Jet2",
    "FormulaError",
    "EvalDomainError",
    "parse",
    "serialize",
    "eval_jet2",
    "compile_value",
    "compile_value_d1",
    "compile_jet2",
]

FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")
NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}


class FormulaError(ValueError):
    """Malformed formula text; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """A formula left the real domain (or overflowed) during evaluation."""

    def __init__(self, message: str, subexpr: str, x: float):
        super().__init__(f"{message} in '{subexpr}' at x={x!r}")
        self.subexpr = subexpr
        self.x = x


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Symbol:
    name: str  # 'x', 'pi' or 'e'


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a function name
    arg: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str  # '+', '-', '*', '/', '^'
    lhs: "ExprAst"
    rhs: "ExprAst"


ExprAst = Union[Number, Symbol, Unary, Binary]


class Jet2(NamedTuple):
    """Value and first two derivatives with respect to x."""

    v: float
    d1: float
    d2: float


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def fail(self, message):
        raise FormulaError(message, self.pos)

    def peek(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.fail(f"expected '{ch}'")
        self.pos += 1

    def parse(self):
        node = self.expr()
        if self.peek() != "":
            self.fail("unexpected trailing input")
        return node

    def expr(self):
        node = self.term()
        while True:
            ch = self.peek()
            if ch in ("+", "-"):
                self.pos += 1
                node = Binary(ch, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            ch = self.peek()
            if ch in ("*", "/"):
                self.pos += 1
                node = Binary(ch, node, self.factor())
            else:
                return node

    def factor(self):
        base = self.unary()
        if self.peek() == "^":
            self.pos += 1
            return Binary("^", base, self.factor())
        return base

    def unary(self):
        if self.peek() == "-":
            self.pos += 1
            return Unary("neg", self.unary())
        return self.atom()

    def atom(self):
        ch = self.peek()
        if ch == "":
            self.fail("unexpected end of input")
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        m = _NUM_RE.match(self.src, self.pos)
        if m:
            value = float(m.group())
            if not math.isfinite(value):
                self.fail(f"numeric literal '{m.group()}' overflows")
            self.pos = m.end()
            return Number(value)
        m = _IDENT_RE.match(self.src, self.pos)
        if m:
            name = m.group()
            start = self.pos
            self.pos = m.end()
            if name in FUNCTIONS:
                if self.peek() != "(":
                    self.pos = start
                    self.fail(f"function '{name}' takes exactly one parenthesized argument")
                self.pos += 1
                arg = self.expr()
                self.expect(")")
                return Unary(name, arg)
            if self.peek() == "(":
                self.pos = start
                if name == "x" or name in NAMED_CONSTANTS:
                    self.fail(f"'{name}' is not a function")
                self.fail(f"unknown function '{name}'")
            if name == "x" or name in NAMED_CONSTANTS:
                return Symbol(name)
            self.pos = start
            self.fail(f"unknown identifier '{name}'")
        self.fail(f"unexpected character {ch!r}")


def parse(source: str) -> ExprAst:
    """Parse formula text into an AST; raises FormulaError with a byte offset."""
    if not isinstance(source, str) or not source.strip():
        raise FormulaError("empty formula", 0)
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# serialization (round-trips structurally through parse)
# ---------------------------------------------------------------------------

_BINARY_LEVEL = {"+": 0, "-": 0, "*": 1, "/": 1, "^": 2}


def _node_level(node):
    if isinstance(node, (Number, Symbol)):
        return 4
    if isinstance(node, Unary):
        return 3 if node.op == "neg" else 4
    return _BINARY_LEVEL[node.op]


def _fmt(node, minimum):
    if isinstance(node, Number):
        s = repr(node.value)
    elif isinstance(node, Symbol):
        s = node.name
    elif isinstance(node, Unary):
        if node.op == "neg":
            s = "-" + _fmt(node.arg, 3)
        else:
            s = f"{node.op}({_fmt(node.arg, 0)})"
    else:
        op = node.op
        if op == "^":
            # the base slot only admits unary/atom, the exponent a factor
            s = _fmt(node.lhs, 3) + "^" + _fmt(node.rhs, 2)
        elif op in "*/":
            s = _fmt(node.lhs, 1) + op + _fmt(node.rhs, 2)
        else:
            s = _fmt(node.lhs, 0) + op + _fmt(node.rhs, 1)
    if _node_level(node) < minimum:
        return "(" + s + ")"
    return s


def serialize(node: ExprAst) -> str:
    """Render an AST back to formula text; parse(serialize(t)) equals t."""
    return _fmt(node, 0)


# ---------------------------------------------------------------------------
# jet evaluation
# ---------------------------------------------------------------------------


def _domain(message, node, x):
    return EvalDomainError(message, serialize(node), x)


def _jet_log(a, node, x):
    if a.v <= 0.0:
        raise _domain("logarithm of a non-positive value", node, x)
    r = a.d1 / a.v
    return Jet2(math.log(a.v), r, a.d2 / a.v - r * r)


def _jet_exp(a, node, x):
    try:
        e = math.exp(a.v)
    except OverflowError:
        raise _domain("exp overflow", node, x) from None
    return Jet2(e, e * a.d1, e * (a.d2 + a.d1 * a.d1))


def _jet_mul(a, b):
    return Jet2(
        a.v * b.v,
        a.d1 * b.v + a.v * b.d1,
        a.d2 * b.v + 2.0 * a.d1 * b.d1 + a.v * b.d2,
    )


def _apply_unary(node, a, x):
    op = node.op
    if op == "neg":
        return Jet2(-a.v, -a.d1, -a.d2)
    if op == "sqrt":
        if a.v < 0.0:
            raise _domain("square root of a negative value", node, x)
        if a.v == 0.0:
            if a.d1 == 0.0 and a.d2 == 0.0:
                return Jet2(0.0, 0.0, 0.0)
            raise _domain("square root not differentiable at zero", node, x)
        s = math.sqrt(a.v)
        d1 = a.d1 / (2.0 * s)
        return Jet2(s, d1, (a.d2 - 2.0 * d1 * d1) / (2.0 * s))
    if op == "exp":
        return _jet_exp(a, node, x)
    if op == "log":
        return _jet_log(a, node, x)
    if op == "sin":
        s, c = math.sin(a.v), math.cos(a.v)
        return Jet2(s, c * a.d1, c * a.d2 - s * a.d1 * a.d1)
    if op == "cos":
        s, c = math.sin(a.v), math.cos(a.v)
        return Jet2(c, -s * a.d1, -s * a.d2 - c * a.d1 * a.d1)
    raise _domain(f"unknown function '{op}'", node, x)


def _apply_power(node, a, b, x):
    if b.d1 == 0.0 and b.d2 == 0.0:
        p = b.v
        if p == 0.0:
            return Jet2(1.0, 0.0, 0.0)
        if p == 1.0:
            return a
        if a.v == 0.0:
            if a.d1 == 0.0 and a.d2 == 0.0:
                if p < 0.0:
                    raise _domain("zero raised to a negative power", node, x)
                return Jet2(0.0, 0.0, 0.0)
            if p >= 2.0:
                d2 = 2.0 * a.d1 * a.d1 if p == 2.0 else 0.0
                return Jet2(0.0, 0.0, d2)
            raise _domain("power not twice differentiable at zero base", node, x)
        if a.v < 0.0 and not float(p).is_integer():
            raise _domain("negative base with non-integer exponent", node, x)
        try:
            vp = math.pow(a.v, p)
            vp1 = math.pow(a.v, p - 1.0)
            vp2 = math.pow(a.v, p - 2.0)
        except (ValueError, OverflowError):
            raise _domain("power out of domain", node, x) from None
        d1 = p * vp1 * a.d1
        d2 = p * (p - 1.0) * vp2 * a.d1 * a.d1 + p * vp1 * a.d2
        return Jet2(vp, d1, d2)
    # x-dependent exponent: a^b = exp(b*log(a)), base must stay positive
    if a.v <= 0.0:
        raise _domain("variable exponent requires a positive base", node, x)
    return _jet_exp(_jet_mul(b, _jet_log(a, node, x)), node, x)


def _jet(node, x):
    if isinstance(node, Number):
        return Jet2(node.value, 0.0, 0.0)
    if isinstance(node, Symbol):
        if node.name == "x":
            return Jet2(x, 1.0, 0.0)
        return Jet2(NAMED_CONSTANTS[node.name], 0.0, 0.0)
    if isinstance(node, Unary):
        out = _apply_unary(node, _jet(node.arg, x), x)
    else:
        a = _jet(node.lhs, x)
        b = _jet(node.rhs, x)
        op = node.op
        if op == "+":
            out = Jet2(a.v + b.v, a.d1 + b.d1, a.d2 + b.d2)
        elif op == "-":
            out = Jet2(a.v - b.v, a.d1 - b.d1, a.d2 - b.d2)
        elif op == "*":
            out = _jet_mul(a, b)
        elif op == "/":
            if b.v == 0.0:
                raise _domain("division by zero", node, x)
            q = a.v / b.v
            q1 = (a.d1 - q * b.d1) / b.v
            q2 = (a.d2 - 2.0 * q1 * b.d1 - q * b.d2) / b.v
            out = Jet2(q, q1, q2)
        else:
            out = _apply_power(node, a, b, x)
    if not (math.isfinite(out.v) and math.isfinite(out.d1) and math.isfinite(out.d2)):
        raise _domain("overflow to non-finite", node, x)
    return out


def eval_jet2(ast: ExprAst, x: float) -> Jet2:
    """Evaluate (V(x), V'(x), V''(x)); the seed for 'x' is (x, 1, 0)."""
    return _jet(ast, x)


# ---------------------------------------------------------------------------
# compilation to a plain-value callable
# ---------------------------------------------------------------------------


def _emit(node):
    if isinstance(node, Number):
        return repr(node.value)
    if isinstance(node, Symbol):
        return "x" if node.name == "x" else node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"(-{_emit(node.arg)})"
        return f"{node.op}({_emit(node.arg)})"
    if node.op == "^":
        return f"pow({_emit(node.lhs)},{_emit(node.rhs)})"
    return f"({_emit(node.lhs)}{node.op}{_emit(node.rhs)})"


_SCALAR_ENV = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "pow": math.pow,
    "pi": math.pi,
    "e": math.e,
}


def compile_value(ast: ExprAst, vectorized: bool = False) -> Callable:
    """Compile an AST to a fast value-only callable.

    The scalar backend (math) raises ValueError/ZeroDivisionError/
    OverflowError on domain violations; the vectorized backend (numpy)
    produces nan/inf entries instead, so callers screen with isfinite.
    """
    if vectorized:
        import numpy as np

        env = {
            "sqrt": np.sqrt,
            "exp": np.exp,
            "log": np.log,
            "sin": np.sin,
            "cos": np.cos,
            "pow": np.power,
            "pi": np.pi,
            "e": np.e,
        }
    else:
        env = dict(_SCALAR_ENV)
    env["__builtins__"] = {}
    # the source string is generated from our own AST nodes only
    return eval(f"lambda x: {_emit(ast)}", env)


# ---------------------------------------------------------------------------
# compilation to a value-and-first-derivative callable
# ---------------------------------------------------------------------------


def _times(expr: str, slope: str) -> str:
    return expr if slope == "1.0" else f"{expr}*{slope}"


def _slope(node, v, a, da, b, db) -> str:
    """First-derivative expression of ``node`` with value ``v``.

    ``a``/``b`` are the operands' value expressions and ``da``/``db`` their
    slopes, None for an operand that does not depend on x.
    """
    op = node.op
    if isinstance(node, Unary):
        return {
            "neg": f"-{da}",
            "sqrt": f"{da}/(2.0*{v})",
            "exp": _times(v, da),
            "log": f"{da}/{a}",
            "sin": _times(f"cos({a})", da),
            "cos": _times(f"-sin({a})", da),
        }[op]
    if op in "+-":
        if db is None:
            return da
        if da is None:
            return db if op == "+" else f"-{db}"
        return f"{da}{op}{db}"
    if op == "*":
        return "+".join(t for t in (da and _times(b, da), db and _times(a, db)) if t)
    if op == "/":
        return f"{da}/{b}" if db is None else f"({da or '0.0'}-{_times(v, db)})/{b}"
    if db is None:
        # constant exponent: d(a^p) = p a^(p-1) a'
        p1 = repr(node.rhs.value - 1.0) if isinstance(node.rhs, Number) else f"{b}-1.0"
        return _times(f"{b}*pow({a},{p1})", da)
    # variable exponent: d(a^b) = a^b (b' log a + b a'/a); the base must stay positive
    dlog = _times(f"log({a})", db)
    return f"{v}*{dlog}" if da is None else f"{v}*({dlog}+{b}*{da}/{a})"


def _emit_d1(node, lines: list[str]) -> tuple[str, str | None]:
    """Append straight-line code for ``node``; return its value and slope names.

    Subtrees that do not depend on x get slope None and are emitted inline
    exactly as ``compile_value`` would; every other node gets one
    (value, slope) temp pair.
    """
    if isinstance(node, (Number, Symbol)):
        return _emit(node), ("1.0" if node == Symbol("x") else None)
    if isinstance(node, Unary):
        (a, da), (b, db) = _emit_d1(node.arg, lines), (None, None)
    else:
        (a, da), (b, db) = _emit_d1(node.lhs, lines), _emit_d1(node.rhs, lines)
    if da is None and db is None:
        return _emit(node), None
    i = len(lines) // 2
    v, d = f"v{i}", f"d{i}"
    if isinstance(node, Unary):
        value = f"-{a}" if node.op == "neg" else f"{node.op}({a})"
    else:
        value = f"pow({a},{b})" if node.op == "^" else f"{a}{node.op}{b}"
    lines.append(f"    {v} = {value}")
    lines.append(f"    {d} = {_slope(node, v, a, da, b, db)}")
    return v, d


def compile_value_d1(ast: ExprAst) -> Callable[[float], tuple[float, float]]:
    """Compile an AST to a scalar callable x -> (V(x), V'(x)).

    The slope is the exact first-order chain rule (the d1 of ``eval_jet2``)
    in straight-line code.  Like the scalar ``compile_value`` it raises
    ValueError/ZeroDivisionError/OverflowError on domain violations.
    """
    lines: list[str] = []
    value, slope = _emit_d1(ast, lines)
    body = lines + [f"    return {value}, {slope or '0.0'}"]
    env = dict(_SCALAR_ENV, __builtins__={})
    # the source is generated from our own AST nodes only
    exec("def value_d1(x):\n" + "\n".join(body), env)
    return env["value_d1"]


# ---------------------------------------------------------------------------
# compilation to a vectorized (v, d1, d2) callable
# ---------------------------------------------------------------------------


def _emit_jet2(node, lines: list[str], checks: list[tuple[str, str]]):
    """Append numpy straight-line code for ``node``; return its (v, d1, d2) names.

    Subtrees that do not depend on x come back inline with derivatives
    None.  Every domain test of ``_jet`` becomes a masked check line
    ``_fail(mask, k, x)``, ``checks[k]`` holding its message and subexpression.
    """
    if isinstance(node, (Number, Symbol)):
        return (_emit(node), "1.0", "0.0") if node == Symbol("x") else (_emit(node), None, None)
    if isinstance(node, Unary):
        (a, da, ea), (b, db, eb) = _emit_jet2(node.arg, lines, checks), (None, None, None)
    else:
        (a, da, ea), (b, db, eb) = _emit_jet2(node.lhs, lines, checks), _emit_jet2(node.rhs, lines, checks)
    if da is None and db is None:
        return _emit(node), None, None
    da, ea, db, eb = da or "0.0", ea or "0.0", db or "0.0", eb or "0.0"
    i = len(lines)
    v, d, e = f"v{i}", f"d{i}", f"e{i}"

    def check(mask, message):
        checks.append((message, serialize(node)))
        lines.append(f"_fail({mask}, {len(checks) - 1}, x)")

    def jet(value, slope, curvature):
        lines.extend([f"{v} = {value}", f"{d} = {slope}", f"{e} = {curvature}"])

    op = node.op
    if op == "neg":
        jet(f"-{a}", f"-{da}", f"-{ea}")
    elif op == "sqrt":
        check(f"{a} < 0.0", "square root of a negative value")
        lines.append(f"z{i} = {a} == 0.0")
        check(f"z{i} & (({da} != 0.0) | ({ea} != 0.0))", "square root not differentiable at zero")
        lines.append(f"s{i} = sqrt({a})")
        jet(f"s{i}", f"where(z{i}, 0.0, {da}/(2.0*s{i}))", f"where(z{i}, 0.0, ({ea}-2.0*{d}*{d})/(2.0*s{i}))")
    elif op == "exp":
        lines.append(f"{v} = exp({a})")
        check(f"isinf({v})", "exp overflow")
        lines.extend([f"{d} = {v}*{da}", f"{e} = {v}*({ea}+{da}*{da})"])
    elif op == "log":
        check(f"{a} <= 0.0", "logarithm of a non-positive value")
        lines.append(f"r{i} = {da}/{a}")
        jet(f"log({a})", f"r{i}", f"{ea}/{a}-r{i}*r{i}")
    elif op == "sin":
        jet(f"sin({a})", f"cos({a})*{da}", f"cos({a})*{ea}-{v}*{da}*{da}")
    elif op == "cos":
        jet(f"cos({a})", f"-sin({a})*{da}", f"-sin({a})*{ea}-{v}*{da}*{da}")
    elif op in "+-":
        jet(f"{a}{op}{b}", f"{da}{op}{db}", f"{ea}{op}{eb}")
    elif op == "*":
        jet(f"{a}*{b}", f"{da}*{b}+{a}*{db}", f"{ea}*{b}+2.0*{da}*{db}+{a}*{eb}")
    elif op == "/":
        check(f"{b} == 0.0", "division by zero")
        jet(f"{a}/{b}", f"({da}-{v}*{db})/{b}", f"({ea}-2.0*{d}*{db}-{v}*{eb})/{b}")
    elif db == "0.0":
        # constant exponent p, with _apply_power's special cases at a zero base
        p = float(eval(b, dict(_SCALAR_ENV, __builtins__={})))
        if p == 0.0:
            return "1.0", None, None
        if p == 1.0:
            return a, da, ea
        lines.append(f"z{i} = {a} == 0.0")
        flat = f"z{i} & ({da} == 0.0) & ({ea} == 0.0)"
        if p < 0.0:
            check(flat, "zero raised to a negative power")
        if p < 2.0:
            check(f"z{i} & ~({flat})", "power not twice differentiable at zero base")
        if not p.is_integer():
            check(f"{a} < 0.0", "negative base with non-integer exponent")
        lines.append(f"w{i} = pow({a}, {p - 1.0!r})")
        jet(
            f"pow({a}, {p!r})",
            f"where(z{i}, 0.0, {p!r}*w{i}*{da})",
            f"where(z{i}, {'2.0*' + da + '*' + da if p == 2.0 else '0.0'}, "
            f"{p * (p - 1.0)!r}*pow({a}, {p - 2.0!r})*{da}*{da}+{p!r}*w{i}*{ea})",
        )
    else:
        # variable exponent: a^b = exp(b log a), the base must stay positive
        check(f"{a} <= 0.0", "variable exponent requires a positive base")
        lines.extend([f"l{i} = log({a})", f"m{i} = {da}/{a}", f"n{i} = {ea}/{a}-m{i}*m{i}"])
        lines.extend([f"f{i} = {db}*l{i}+{b}*m{i}", f"g{i} = {eb}*l{i}+2.0*{db}*m{i}+{b}*n{i}"])
        lines.append(f"{v} = exp({b}*l{i})")
        check(f"isinf({v})", "exp overflow")
        lines.extend([f"{d} = {v}*f{i}", f"{e} = {v}*(g{i}+f{i}*f{i})"])
    check(f"~(isfinite({v}) & isfinite({d}) & isfinite({e}))", "overflow to non-finite")
    return v, d, e


def compile_jet2(ast: ExprAst) -> Callable:
    """Compile an AST to x -> Jet2(V, V', V'') over a numpy array of points.

    The callable returns arrays shaped like x and raises EvalDomainError,
    naming the first failing point, on the inputs where ``eval_jet2``
    raises.
    """
    import numpy as np

    lines: list[str] = []
    checks: list[tuple[str, str]] = []
    v, d, e = _emit_jet2(ast, lines, checks)

    def fail(mask, k, x):
        if np.any(mask):
            i = np.flatnonzero(np.broadcast_to(mask, np.shape(x)))[0]
            raise EvalDomainError(checks[k][0], checks[k][1], float(np.ravel(x)[i]))

    body = "".join(f"        {line}\n" for line in lines)
    out = ", ".join(f"full({t or '0.0'}, x)" for t in (v, d, e))
    env = {
        "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
        "pow": np.power, "pi": math.pi, "e": math.e, "where": np.where, "isinf": np.isinf,
        "isfinite": np.isfinite, "errstate": np.errstate, "_fail": fail, "Jet2": Jet2,
        "full": lambda t, x: np.broadcast_to(np.asarray(t, dtype=float), np.shape(x)),
        "__builtins__": {},
    }
    # the source is generated from our own AST nodes only
    src = f"def jet2(x):\n    with errstate(all='ignore'):\n{body}        return Jet2({out})\n"
    exec(src, env)
    return env["jet2"]
