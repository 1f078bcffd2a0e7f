"""Formula parsing and second-order forward-mode differentiation.

Potentials are supplied as text formulas in the variable ``x``, e.g.
``"2+sin(x)"`` or ``"(1-x)/x"``.  ``parse`` builds an immutable AST.
One emitter turns an AST into straight-line code for its ``(v, d1, d2)``
jet, the value and first two derivatives by exact chain rules, with a
domain check at every node.  Two backends run that code: ``eval_jet2``
on floats, compiled once per AST, and ``compile_jet2`` on numpy arrays.
``compile_value`` emits fast plain-value callables for inner loops.

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

import functools
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
# compilation to (v, d1, d2) jets: one emitter, a numpy and a scalar backend
# ---------------------------------------------------------------------------


def _emit_jet2(node, lines: list[str], checks: list[tuple[str, str]], vectorized: bool):
    """Append straight-line code for ``node``; return its (v, d1, d2) names and x-freedom.

    Leaves come back inline, with derivatives None where they do not
    depend on x.  Every other node gets temps, x-free ones included, so
    constant subtrees keep their domain checks and their signed-zero
    derivatives.  A check line raises ``checks[k]``, its message and
    subexpression, where its mask holds.  The numpy backend
    (``vectorized``) masks arrays and selects with ``where``; the scalar
    one tests floats with ``if`` and selects lazily.
    """
    if isinstance(node, Number):
        return repr(node.value), None, None, True
    if isinstance(node, Symbol):
        return (node.name, "1.0", "0.0", False) if node.name == "x" else (node.name, None, None, True)
    if isinstance(node, Unary):
        a, da, ea, x_free = _emit_jet2(node.arg, lines, checks, vectorized)
        b, db, eb, x_free_b = None, None, None, True
    else:
        a, da, ea, x_free_a = _emit_jet2(node.lhs, lines, checks, vectorized)
        b, db, eb, x_free_b = _emit_jet2(node.rhs, lines, checks, vectorized)
        x_free = x_free_a and x_free_b
    da, ea, db, eb = da or "0.0", ea or "0.0", db or "0.0", eb or "0.0"
    i = len(lines)
    v, d, e = f"v{i}", f"d{i}", f"e{i}"

    def check(mask, message):
        checks.append((message, serialize(node)))
        k = len(checks) - 1
        lines.append(f"_fail({mask}, {k}, x)" if vectorized else f"if {mask}: _fail({k}, x)")

    def pick(cond, then, other):
        return f"where({cond}, {then}, {other})" if vectorized else f"{then} if {cond} else {other}"

    def jet(value, slope, curvature):
        lines.extend([f"{v} = {value}", f"{d} = {slope}", f"{e} = {curvature}"])

    op, p = node.op, None
    if op == "^" and x_free_b:
        try:
            p = eval_jet2(node.rhs, 0.0).v  # any x: the exponent does not depend on it
        except EvalDomainError:
            return b, None, None, True  # unreachable: the exponent's own checks fail first
        if p == 0.0:
            return "1.0", None, None, True
    if op == "neg":
        jet(f"-{a}", f"-{da}", f"-{ea}")
    elif op == "sqrt":
        check(f"{a} < 0.0", "square root of a negative value")
        lines.append(f"z{i} = {a} == 0.0")
        check(f"z{i} & (({da} != 0.0) | ({ea} != 0.0))", "square root not differentiable at zero")
        jet(
            pick(f"z{i}", "0.0", f"sqrt({a})"),  # +0.0 at a zero base, -0.0 included
            pick(f"z{i}", "0.0", f"{da}/(2.0*{v})"),
            pick(f"z{i}", "0.0", f"({ea}-2.0*{d}*{d})/(2.0*{v})"),
        )
    elif op == "exp":
        jet(f"exp({a})", f"{v}*{da}", f"{v}*({ea}+{da}*{da})")
        # an infinite argument is no overflow: its jet is merely non-finite
        check(f"isinf({v}) & isfinite({a})", "exp overflow")
    elif op == "log":
        check(f"{a} <= 0.0", "logarithm of a non-positive value")
        jet(f"log({a})", f"{da}/{a}", f"{ea}/{a}-{d}*{d}")
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
    elif p == 1.0:
        jet(a, da, ea)
    elif p is not None:
        # constant exponent p, with special cases at a zero base
        lines.append(f"z{i} = {a} == 0.0")
        if p < 0.0:
            check(f"z{i} & ({da} == 0.0) & ({ea} == 0.0)", "zero raised to a negative power")
        if p < 2.0:
            check(f"z{i} & (({da} != 0.0) | ({ea} != 0.0))", "power not twice differentiable at zero base")
        if not p.is_integer():
            check(f"{a} < 0.0", "negative base with non-integer exponent")
        lines.extend([f"u{i} = pow({a}, {p!r})", f"w{i} = pow({a}, {p - 1.0!r})", f"y{i} = pow({a}, {p - 2.0!r})"])
        jet(
            pick(f"z{i}", "0.0", f"u{i}"),
            pick(f"z{i}", "0.0", f"{p!r}*w{i}*{da}"),
            pick(f"z{i}", f"2.0*{da}*{da}" if p == 2.0 else "0.0", f"{p!r}*{p - 1.0!r}*y{i}*{da}*{da}+{p!r}*w{i}*{ea}"),
        )
        # a power that overflows from a finite non-zero base; a zero base takes none
        check(f"({a} != 0.0) & isfinite({a}) & (isinf(u{i}) | isinf(w{i}) | isinf(y{i}))", "power out of domain")
    elif op == "^":
        # variable exponent: a^b = exp(b log a), the base must stay positive
        check(f"{a} <= 0.0", "variable exponent requires a positive base")
        lines.extend([f"l{i} = log({a})", f"m{i} = {da}/{a}", f"n{i} = {ea}/{a}-m{i}*m{i}"])
        lines.extend([f"f{i} = {db}*l{i}+{b}*m{i}", f"g{i} = {eb}*l{i}+2.0*{db}*m{i}+{b}*n{i}", f"t{i} = {b}*l{i}"])
        jet(f"exp(t{i})", f"{v}*f{i}", f"{v}*(g{i}+f{i}*f{i})")
        check(f"isinf({v}) & isfinite(t{i})", "exp overflow")
    else:
        check("True", f"unknown function '{op}'")
        return a, None, None, True
    finite = f"isfinite({v}) & isfinite({d}) & isfinite({e})"
    check(f"~({finite})" if vectorized else f"not ({finite})", "overflow to non-finite")
    return v, d, e, x_free


def _overflow_to_inf(f):
    """``f`` from math, giving numpy's infinity where math raises on an overflow or a pole."""

    def g(*args):
        try:
            return f(*args)
        except (OverflowError, ValueError):
            return math.inf

    return g


_EXP, _POW = _overflow_to_inf(math.exp), _overflow_to_inf(math.pow)


def _compile_jet2(ast: ExprAst, vectorized: bool) -> Callable:
    lines: list[str] = []
    checks: list[tuple[str, str]] = []
    jet = [t or "0.0" for t in _emit_jet2(ast, lines, checks, vectorized)[:3]]
    if vectorized:
        import numpy as np

        def fail(mask, k, x):
            # an x-free check gives a bool; the mask is broadcast only to find the point
            if mask is True or (mask is not False and mask.any()):
                bad = np.broadcast_to(mask, np.shape(x))
                raise EvalDomainError(*checks[k], float(np.ravel(x)[np.argmax(bad)]))

        def full(t, x):
            # an output that is already a float array of x's shape goes back as it is
            if type(t) is np.ndarray and t.dtype == np.float64 and t.shape == np.shape(x):
                return t
            return np.broadcast_to(np.asarray(t, dtype=float), np.shape(x))

        env = {
            "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
            "pow": np.power, "where": np.where, "isinf": np.isinf, "isfinite": np.isfinite,
            "errstate": np.errstate, "full": full,
        }
        head, indent = "def jet2(x):\n    with errstate(all='ignore'):\n", " " * 8
        jet = [f"full({t}, x)" for t in jet]
    else:

        def fail(k, x):
            raise EvalDomainError(*checks[k], x)

        env = {
            "sqrt": math.sqrt, "exp": _EXP, "log": math.log, "sin": math.sin, "cos": math.cos,
            "pow": _POW, "isinf": math.isinf, "isfinite": math.isfinite,
        }
        head, indent = "def jet2(x):\n", " " * 4
    env.update(pi=math.pi, e=math.e, _fail=fail, Jet2=Jet2, __builtins__={})
    body = "".join(f"{indent}{line}\n" for line in lines)
    # the source is generated from our own AST nodes only
    exec(f"{head}{body}{indent}return Jet2({', '.join(jet)})\n", env)
    return env["jet2"]


def compile_jet2(ast: ExprAst) -> Callable:
    """Compile an AST to x -> Jet2(V, V', V'') over a numpy array of points.

    It runs the straight-line code of ``eval_jet2`` on numpy arrays, so it
    returns arrays shaped like x (read-only broadcasts for the parts that
    do not vary, and x itself for V = x) and raises ``eval_jet2``'s
    EvalDomainError at the first point that fails the first failing check.
    """
    return _compile_jet2(ast, vectorized=True)


@functools.lru_cache(maxsize=64)
def _scalar_jet2(ast: ExprAst) -> Callable[[float], Jet2]:
    return _compile_jet2(ast, vectorized=False)


def eval_jet2(ast: ExprAst, x: float) -> Jet2:
    """Evaluate (V(x), V'(x), V''(x)); the seed for 'x' is (x, 1, 0).

    Runs the AST's jet code on floats, compiled once per AST.
    """
    return _scalar_jet2(ast)(x)
