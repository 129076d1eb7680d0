"""Linear differential operators with rational-function coefficients.

A DiffOp is a coefficient list indexed by derivative order:
coeffs[k] multiplies d^k/dx^k.  Composition expands A∘B through the Leibniz
rule; the commutator, gauge conjugation by e^{g}, and application to rational
functions are built on top of it.
"""

from __future__ import annotations

from math import comb

from .field import FieldElement
from .poly import LaurentPolynomial, Polynomial
from .ratfunc import RF_ONE, RF_ZERO, RationalFunction


class DiffOp:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = []
        for c in coeffs:
            if isinstance(c, RationalFunction):
                cs.append(c)
            elif isinstance(c, Polynomial):
                cs.append(RationalFunction.from_polynomial(c))
            else:
                cs.append(RationalFunction.constant(c))
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, cs: list) -> "DiffOp":
        while cs and cs[-1].is_zero:
            cs.pop()
        op = object.__new__(cls)
        op.coeffs = tuple(cs)
        return op

    @classmethod
    def zero(cls) -> "DiffOp":
        return cls._raw([])

    @classmethod
    def derivative_op(cls, order: int = 1) -> "DiffOp":
        """The pure derivative d^order."""
        return cls._raw([RF_ZERO] * order + [RF_ONE])

    @classmethod
    def multiplication(cls, f) -> "DiffOp":
        if not isinstance(f, RationalFunction):
            f = RationalFunction.constant(f)
        return cls._raw([f])

    # -- structure -------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def order(self) -> int:
        """Operator order; the zero operator reports -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> RationalFunction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else RF_ZERO

    @property
    def leading(self) -> RationalFunction:
        if self.is_zero:
            raise ValueError("zero operator has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == RF_ONE

    # -- linear structure --------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for k, c in enumerate(b):
            cs[k] = cs[k] + c
        return DiffOp._raw(cs)

    def __neg__(self):
        return DiffOp._raw([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "DiffOp":
        if not isinstance(c, RationalFunction):
            c = RationalFunction.constant(c)
        return DiffOp._raw([c * v for v in self.coeffs])

    # -- multiplication ------------------------------------------------------------
    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product self∘other (apply other first).

        d^i (b_j d^j f) = sum_m C(i,m) b_j^(i-m) d^(m+j) f, so each pair of
        coefficients scatters across the result through derivatives of b_j.
        """
        if self.is_zero or other.is_zero:
            return DiffOp.zero()
        n = self.order
        # derivative table: derivs[j][t] = t-th derivative of other.coeffs[j]
        derivs = []
        for b in other.coeffs:
            row = [b]
            for _ in range(n):
                row.append(row[-1].derivative())
            derivs.append(row)
        out = [RF_ZERO] * (self.order + other.order + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, row in enumerate(derivs):
                if other.coeffs[j].is_zero:
                    continue
                for m in range(i + 1):
                    term = row[i - m]
                    if term.is_zero:
                        continue
                    c = comb(i, m)
                    piece = a * term
                    if c != 1:
                        piece = piece * FieldElement.from_rational(c)
                    out[m + j] = out[m + j] + piece
        return DiffOp._raw(out)

    def apply(self, f: RationalFunction) -> RationalFunction:
        """The operator applied to a rational function."""
        if not isinstance(f, RationalFunction):
            f = RationalFunction.from_polynomial(f) if isinstance(f, Polynomial) \
                else RationalFunction.constant(f)
        acc = RF_ZERO
        df = f
        for k, c in enumerate(self.coeffs):
            if k > 0:
                df = df.derivative()
            if not c.is_zero:
                acc = acc + c * df
        return acc

    # -- comparisons ------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.order, -1, -1):
            c = self.coeff(k)
            if c.is_zero:
                continue
            if k == 0:
                parts.append(f"({c})")
            else:
                ds = "d" if k == 1 else f"d^{k}"
                parts.append(ds if c == RF_ONE else f"({c})*{ds}")
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffOp[{self}]"


def compose(a: DiffOp, b: DiffOp) -> DiffOp:
    return a.compose(b)


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] = a∘b - b∘a."""
    return a.compose(b) - b.compose(a)


def gauge_transform(op: DiffOp, g: LaurentPolynomial) -> DiffOp:
    """Conjugation e^{-g} ∘ op ∘ e^{g}.

    Since e^{-g} d e^{g} = d + g' and conjugation is an algebra morphism, the
    result is sum_k c_k (d + g')^k; one code path covers every exponent shape
    (A*x, x^3/3 - sigma*x, nu/x, ...).
    """
    gprime = g.derivative()
    shift_rf = RF_ZERO
    for k, v in gprime.terms.items():
        if k >= 0:
            shift_rf = shift_rf + RationalFunction.from_polynomial(
                Polynomial.monomial(k, v))
        else:
            shift_rf = shift_rf + RationalFunction(
                Polynomial.constant(v), Polynomial.monomial(-k))
    conjugated_d = DiffOp([shift_rf, RF_ONE])
    out = DiffOp.zero()
    power = DiffOp([RF_ONE])
    for k, c in enumerate(op.coeffs):
        if k > 0:
            power = power.compose(conjugated_d)
        if not c.is_zero:
            out = out + power.scale(c)
    return out
