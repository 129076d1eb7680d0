"""Semi-commuting companions of a monic second-order operator.

For P = d^2 + p1 d + p0 the degree-1 and degree-2 families whose commutator
with P is a pure multiplication operator are

    Q1 = b1 d + (b1/2) p1 + b0
    Q2 = b2 d^2 + (b2 p1 + b1) d + (b1/2) p1 + b2 p0 + b0
       = b2 P + b1 (d + p1/2) + b0

The degree-2 zeroth coefficient is the exact antiderivative demanded by the
first-order condition on q0: with q1 = b2 p1 + b1 the integrand collapses to
(b1/2) p1' + b2 p0', so no symbolic integration (and no logarithm) ever
appears.  The deliberately wrong recursion from earlier work is kept as
gorder_q1 for the counterexample reproduction; it does need a rational
antiderivative and aborts when the integrand has nonzero residues.

residual(P, Q) reports the order-0 coefficient of P∘Q - Q∘P, which is the
left-hand side of the commutativity condition (d^2 q0 + p1 d q0 - ... ); its
roots are the points where the pair commutes locally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldElement, ZERO, fe
from .diffop import DiffOp, commutator
from .ratfunc import (LogObstructionError, RationalFunction,
                      antiderivative, poly_roots)


class OperatorShapeError(ValueError):
    """P is not a monic operator of order 2."""


class NotSemiCommutingError(ValueError):
    """residual() was asked about a pair whose commutator has order > 0."""


class GorderObstructionError(ValueError):
    """The printed first-degree recursion needs a logarithmic antiderivative."""

    def __init__(self, residual_part):
        self.residual_part = residual_part
        super().__init__(
            "printed recursion requires log terms (nonzero residues in "
            f"{residual_part})")


@dataclass(frozen=True)
class SemiCommuteSpec:
    """Integration constants of the companion family."""

    degree: int
    beta0: FieldElement = ZERO
    beta1: FieldElement = ZERO
    beta2: FieldElement | None = None

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise ValueError("degree must be 1 or 2")
        object.__setattr__(self, "beta0", FieldElement._coerce(self.beta0))
        object.__setattr__(self, "beta1", FieldElement._coerce(self.beta1))
        if self.degree == 2:
            b2 = self.beta2 if self.beta2 is not None else ZERO
            object.__setattr__(self, "beta2", FieldElement._coerce(b2))


@dataclass(frozen=True)
class ResidualReport:
    residual: RationalFunction
    commutes: bool
    local_points: tuple  # FieldElement (exact) or complex (numeric) entries

    @property
    def numeric_points(self):
        return tuple(p for p in self.local_points if not isinstance(p, FieldElement))


def _check_monic_order2(p: DiffOp):
    if p.order != 2 or not p.is_monic():
        raise OperatorShapeError(
            f"expected a monic order-2 operator, got order {p.order}")


def build_q1(p: DiffOp, spec: SemiCommuteSpec) -> DiffOp:
    """Degree-1 semi-commuting family member for the given constants."""
    _check_monic_order2(p)
    p1 = p.coeff(1)
    b0 = RationalFunction.constant(spec.beta0)
    b1 = RationalFunction.constant(spec.beta1)
    half_b1 = RationalFunction.constant(spec.beta1 / 2)
    return DiffOp([half_b1 * p1 + b0, b1])


def build_q2(p: DiffOp, spec: SemiCommuteSpec) -> DiffOp:
    """Degree-2 semi-commuting family member for the given constants."""
    _check_monic_order2(p)
    if spec.degree != 2:
        raise ValueError("degree-2 spec required")
    p1, p0 = p.coeff(1), p.coeff(0)
    b0 = RationalFunction.constant(spec.beta0)
    b1 = RationalFunction.constant(spec.beta1)
    b2 = RationalFunction.constant(spec.beta2)
    half_b1 = RationalFunction.constant(spec.beta1 / 2)
    q1 = b2 * p1 + b1
    q0 = half_b1 * p1 + b2 * p0 + b0
    return DiffOp([q0, q1, b2])


def gorder_q1(p: DiffOp, spec: SemiCommuteSpec) -> DiffOp:
    """Degree-1 companion built with the printed (incorrect) recursion.

    q0' = (b1/2) p1' - (b1/2) p0, so q0 needs the rational antiderivative of
    p0; a nonzero residue (log term) aborts the construction.
    """
    _check_monic_order2(p)
    p1, p0 = p.coeff(1), p.coeff(0)
    try:
        p0_int = antiderivative(p0)
    except LogObstructionError as exc:
        raise GorderObstructionError(exc.residual_part) from exc
    # both antiderivatives are taken with zero integration constant; the one
    # free constant of the family is beta0
    p1_int = antiderivative(p1.derivative())
    half_b1 = RationalFunction.constant(spec.beta1 / 2)
    q0 = half_b1 * p1_int - half_b1 * p0_int + \
        RationalFunction.constant(spec.beta0)
    return DiffOp([q0, RationalFunction.constant(spec.beta1)])


def residual(p: DiffOp, q: DiffOp) -> ResidualReport:
    """Commutativity residual of a semi-commuting pair.

    The commutator P∘Q - Q∘P must already be a multiplication operator;
    its coefficient is the residual, and the residual's numerator roots are
    the local commutation points (exact where the numerator factors over the
    active field, numeric eigenvalue roots otherwise).
    """
    c = commutator(p, q)
    if c.is_zero:
        return ResidualReport(c.coeff(0), True, ())
    if c.order > 0:
        raise NotSemiCommutingError(
            f"commutator has order {c.order}, not a semi-commuting pair")
    res = c.coeff(0)
    exact, numeric = poly_roots(res.num)
    points = [p_ for p_, _ in exact] + list(numeric)
    return ResidualReport(res, False, tuple(points))


def counterexample_report() -> dict:
    """The first-degree counterexample to the printed recursion.

    With P = d^2 - d - 1 and b1 = 1, b0 = 0, the corrected construction
    commutes while the printed recursion leaves the commutator d - 1/2.
    """
    p = DiffOp([fe(-1), fe(-1), fe(1)])
    spec = SemiCommuteSpec(degree=1, beta0=fe(0), beta1=fe(1))
    q_fixed = build_q1(p, spec)
    q_printed = gorder_q1(p, spec)
    return {
        "P": p,
        "corrected_Q": q_fixed,
        "corrected_commutator": commutator(p, q_fixed),
        "printed_Q": q_printed,
        "printed_commutator": commutator(p, q_printed),
    }
