"""heunops: exact commuting and semi-commuting operators for the Heun family."""

from .field import FieldElement, fe, quadratic_roots, ExtensionMismatchError
from .poly import Polynomial, LaurentPolynomial
from .ratfunc import (RationalFunction, PartialFractionForm, partial_fractions,
                      antiderivative, rf, LogObstructionError, PoleError,
                      UnexplainedFactorError)
from .diffop import DiffOp, compose, commutator, gauge_transform
from .funcalg import ExpMonomial, FunctionSum, apply_op, annihilates
from .families import (FAMILIES, Family, classify_singularities,
                       ParameterError)
from .semicommute import (SemiCommuteSpec, ResidualReport, build_q1, build_q2,
                          gorder_q1, residual, counterexample_report)
from .series import (FrobeniusSolution, frobenius_series, indicial_roots,
                     series_residual, ResonanceError,
                     IrregularSingularPointError)
from .catalog import enumerate_cases, get_case, verify_case, verify_all

__version__ = "0.1.0"

__all__ = [
    "FieldElement", "fe", "quadratic_roots", "ExtensionMismatchError",
    "Polynomial", "LaurentPolynomial",
    "RationalFunction", "PartialFractionForm", "partial_fractions",
    "antiderivative", "rf", "LogObstructionError", "PoleError",
    "UnexplainedFactorError",
    "DiffOp", "compose", "commutator", "gauge_transform",
    "ExpMonomial", "FunctionSum", "apply_op", "annihilates",
    "FAMILIES", "Family", "classify_singularities", "ParameterError",
    "SemiCommuteSpec", "ResidualReport", "build_q1", "build_q2", "gorder_q1",
    "residual", "counterexample_report",
    "FrobeniusSolution", "frobenius_series", "indicial_roots",
    "series_residual", "ResonanceError", "IrregularSingularPointError",
    "enumerate_cases", "get_case", "verify_case", "verify_all",
    "__version__",
]
