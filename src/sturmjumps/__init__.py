"""Counting negative Dirichlet eigenvalues of -u'' - lambda^2 V u.

The library computes the eigenvalue count N(lambda) by Prüfer-phase
integration, locates the couplings lambda_n where the count jumps,
realizes the Liouville-Green change of variable with its two-sided
count bracket, and checks the asymptotic laws (bounded n*e_n, the Weyl
defect, and the endpoint-constant extrapolation) numerically.
"""

from .asymptotics import (
    ConjectureFit,
    TheoremCheck,
    conjecture_fit,
    theorem_check,
    weyl_defect,
)
from .expr import (
    EvalDomainError,
    ExprAst,
    FormulaError,
    Jet2,
    compile_value,
    eval_jet2,
    parse,
    serialize,
)
from .jumps import BracketingError, JumpRecord, find_jump, jump_sequence
from .liouville_green import LGData, count_bracket, lg_data, transformed_potential
from .oscillation import (
    AtJumpAmbiguity,
    PhaseError,
    PhaseResult,
    count_negative,
    phase,
)
from .potential import (
    Potential,
    Regularity,
    ValidationError,
    ValidationReport,
    endpoint_constant,
)
from .quadrature import QuadratureError, QuadResult, integrate_sqrt_v
from .spectra_oracle import Tridiag, ZeroPivotError, assemble, count_by_inertia, count_matrix

__version__ = "0.1.0"

__all__ = [
    "AtJumpAmbiguity",
    "BracketingError",
    "ConjectureFit",
    "EvalDomainError",
    "ExprAst",
    "FormulaError",
    "Jet2",
    "JumpRecord",
    "LGData",
    "PhaseError",
    "PhaseResult",
    "Potential",
    "QuadResult",
    "QuadratureError",
    "Regularity",
    "TheoremCheck",
    "Tridiag",
    "ValidationError",
    "ValidationReport",
    "ZeroPivotError",
    "assemble",
    "compile_value",
    "conjecture_fit",
    "count_bracket",
    "count_by_inertia",
    "count_matrix",
    "count_negative",
    "endpoint_constant",
    "eval_jet2",
    "find_jump",
    "integrate_sqrt_v",
    "jump_sequence",
    "lg_data",
    "parse",
    "phase",
    "serialize",
    "theorem_check",
    "transformed_potential",
    "weyl_defect",
]
