"""Potentials: a formula bundled with its interval and regularity metadata.

Two regularity classes are distinguished.  A *theorem-class* potential is
twice continuously differentiable and bounded away from zero on the closed
interval, which is what the two-sided counting bracket needs.  A
*conjecture-class* potential is positive on the open interval but may
vanish or blow up at the endpoints like ``c*(x-a)**gamma`` with declared
exponents ``gamma > -2``; such potentials are only ever evaluated strictly
inside the interval.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional

import numpy as np

from .expr import ExprAst, compile_jet2, compile_value, eval_jet2, parse, serialize

__all__ = [
    "Regularity",
    "Potential",
    "ValidationReport",
    "ValidationError",
    "endpoint_constant",
    "chebyshev_grid",
]


class Regularity(enum.Enum):
    THEOREM = "theorem"
    CONJECTURE = "conjecture"


class ValidationError(ValueError):
    """A declared hypothesis failed on the sampling grid."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    min_v: float
    min_x: float
    max_abs_d2: float
    fitted_gamma_a: Optional[float]
    fitted_gamma_b: Optional[float]
    messages: tuple[str, ...]


def chebyshev_grid(a: float, b: float, n: int, include_endpoints: bool) -> np.ndarray:
    """Ascending Chebyshev-spaced points; Lobatto flavour includes a and b exactly."""
    j = np.arange(n)
    if include_endpoints:
        t = np.cos(np.pi * j / (n - 1))
    else:
        t = np.cos(np.pi * (2 * j + 1) / (2 * n))
    xs = 0.5 * (a + b) - 0.5 * (b - a) * t
    if include_endpoints:
        # the affine map can land an end node one ulp outside [a, b]
        xs[0], xs[-1] = a, b
    return xs


@dataclass(frozen=True)
class Potential:
    """Immutable after construction; safe to share across threads."""

    ast: ExprAst
    a: float
    b: float
    regularity: Regularity = Regularity.THEOREM
    gamma_a: Optional[float] = None
    gamma_b: Optional[float] = None
    c_lower: Optional[float] = None
    source: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"need finite a < b, got a={self.a}, b={self.b}")
        if self.regularity is Regularity.CONJECTURE:
            if self.gamma_a is None or self.gamma_b is None:
                raise ValueError("conjecture-class potentials declare both endpoint exponents")
            if self.gamma_a <= -2.0 or self.gamma_b <= -2.0:
                raise ValueError("endpoint exponents must exceed -2")
        else:
            if self.gamma_a is None:
                object.__setattr__(self, "gamma_a", 0.0)
            if self.gamma_b is None:
                object.__setattr__(self, "gamma_b", 0.0)
            if self.c_lower is None:
                object.__setattr__(self, "c_lower", self._probe_min(128))
        if not self.source:
            object.__setattr__(self, "source", serialize(self.ast))

    @classmethod
    def from_formula(
        cls,
        source: str,
        a: float,
        b: float,
        regularity: Regularity | str = Regularity.THEOREM,
        gamma_a: Optional[float] = None,
        gamma_b: Optional[float] = None,
        c_lower: Optional[float] = None,
    ) -> "Potential":
        if isinstance(regularity, str):
            regularity = Regularity(regularity)
        return cls(parse(source), float(a), float(b), regularity, gamma_a, gamma_b, c_lower, source)

    # cached_property stores into __dict__, which is fine on a frozen dataclass
    @cached_property
    def value_fn(self):
        """Fast scalar V(x); math-domain errors propagate as raw exceptions."""
        return compile_value(self.ast)

    @cached_property
    def value_fn_np(self):
        """Vectorized V(x) over numpy arrays; screen outputs with isfinite."""
        return compile_value(self.ast, vectorized=True)

    @cached_property
    def jet2_fn(self):
        """Vectorized x -> Jet2(V, V', V'') over numpy arrays; raises EvalDomainError."""
        return compile_jet2(self.ast)

    @cached_property
    def cell_meshes(self) -> dict:
        """The phase propagator's cell meshes by rtol decade, each built on first use.

        Not pickled: a mesh is a function of the potential and the decade,
        so a worker rebuilds the same one.
        """
        return {}

    @cached_property
    def sliver_ladders(self) -> dict:
        """The phase's Bessel-seed ladders by singular end, "a" or "b", each built on first use; not pickled."""
        return {}

    def __getstate__(self):
        # the fields alone: every cached_property is a function of them, rebuilt on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def value(self, x: float) -> float:
        """Scalar V(x) with domain failures reported as EvalDomainError."""
        try:
            return self.value_fn(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            # re-evaluate through the jet path for a precise message
            return eval_jet2(self.ast, x).v

    def _probe_min(self, n: int) -> float:
        # theorem-class potentials live on the closed interval, and their
        # minimum often sits at an endpoint
        xs = chebyshev_grid(self.a, self.b, n, include_endpoints=True)
        return min(self.value(float(x)) for x in xs)

    def validate(self, samples: int = 512) -> ValidationReport:
        """Check the declared hypotheses on a Chebyshev grid.

        Theorem class: sampled min V must be positive (grid includes the
        endpoints) and not undercut a declared lower bound.  Conjecture
        class: endpoint exponents are re-fitted by log-log regression on
        the ten grid points nearest each endpoint and flagged when they
        disagree with the declared value by more than 0.1.
        """
        if samples < 100:
            raise ValueError("validation needs at least 100 sample points")
        theorem = self.regularity is Regularity.THEOREM
        xs = chebyshev_grid(self.a, self.b, samples, include_endpoints=theorem)
        jets = [eval_jet2(self.ast, float(x)) for x in xs]
        values = [j.v for j in jets]
        i_min = min(range(len(values)), key=values.__getitem__)
        min_v, min_x = values[i_min], float(xs[i_min])
        max_abs_d2 = max(abs(j.d2) for j in jets)

        messages: list[str] = []
        ok = True
        fitted_a = fitted_b = None
        if theorem:
            if min_v <= 0.0:
                raise ValidationError(
                    f"theorem-class potential must stay positive: V({min_x}) = {min_v}"
                )
            if self.c_lower is not None and min_v < self.c_lower:
                ok = False
                messages.append(
                    f"sampled minimum {min_v} undercuts the declared lower bound {self.c_lower}"
                )
        else:
            if min_v <= 0.0:
                raise ValidationError(
                    f"potential must be positive on the open interval: V({min_x}) = {min_v}"
                )
            fitted_a = _fit_exponent(xs[:10] - self.a, values[:10])
            fitted_b = _fit_exponent(self.b - xs[-10:], values[-10:])
            if abs(fitted_a - self.gamma_a) > 0.1:
                ok = False
                messages.append(
                    f"left endpoint exponent fits to {fitted_a:.3f}, declared {self.gamma_a}"
                )
            if abs(fitted_b - self.gamma_b) > 0.1:
                ok = False
                messages.append(
                    f"right endpoint exponent fits to {fitted_b:.3f}, declared {self.gamma_b}"
                )
        return ValidationReport(ok, min_v, min_x, max_abs_d2, fitted_a, fitted_b, tuple(messages))


def _fit_exponent(distances, values) -> float:
    d = np.asarray(distances, dtype=float)
    v = np.asarray(values, dtype=float)
    slope, _ = np.polyfit(np.log(d), np.log(v), 1)
    return float(slope)


def endpoint_constant(gamma_a: float, gamma_b: float) -> float:
    """Predicted constant offset of the jump deviations, from the endpoint exponents."""
    if gamma_a <= -2.0 or gamma_b <= -2.0:
        raise ValueError("endpoint exponents must exceed -2")
    return 1.0 / (4.0 + 2.0 * gamma_a) + 1.0 / (4.0 + 2.0 * gamma_b) - 0.5
