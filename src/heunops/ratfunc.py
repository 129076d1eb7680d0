"""Reduced rational functions over FieldElement, plus the helpers built on
them: partial fractions, rational antiderivatives, local series expansions,
and exact/numeric root extraction.

Normal form: gcd(num, den) = 1 and den monic.  Zero is 0/1.  With that, two
rational functions are equal iff their components are equal, which is what
makes operator equality testing trivial downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import FieldElement, ZERO, Q, fe
from .poly import (LaurentPolynomial, Polynomial, P_ONE, P_ZERO, P_X,
                   poly_x_minus)


class PoleError(ZeroDivisionError):
    """Evaluation at a pole."""


class UnexplainedFactorError(ValueError):
    """The denominator has a factor not covered by the supplied pole list."""

    def __init__(self, factor: Polynomial):
        self.factor = factor
        super().__init__(f"denominator factor not explained by poles: {factor}")


class LogObstructionError(ValueError):
    """A rational antiderivative does not exist (nonzero pole residues)."""

    def __init__(self, residual_part: "RationalFunction"):
        self.residual_part = residual_part
        super().__init__(
            f"antiderivative has logarithmic terms from {residual_part}")


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = P_ONE):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = P_ZERO
            self.den = P_ONE
            return
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lead = den.leading
        if not lead.is_one:
            inv = lead.inverse()
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        r = object.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls._raw(p, P_ONE)

    @classmethod
    def from_laurent(cls, g: LaurentPolynomial) -> "RationalFunction":
        """sum c_k x^k as one fraction over x^m, m the deepest negative power."""
        m = max(0, -g.min_exponent())
        coeffs = [ZERO] * (g.max_exponent() + m + 1)
        for k, v in g.terms.items():
            coeffs[k + m] = v
        return cls(Polynomial(coeffs), Polynomial.monomial(m))

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        c = FieldElement._coerce(c)
        return cls._raw(Polynomial((c,)), P_ONE)

    # -- structure -----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def to_polynomial(self) -> Polynomial:
        if not self.is_polynomial():
            raise ValueError(f"{self} is not a polynomial")
        return self.num

    def is_constant(self) -> bool:
        return self.is_polynomial() and self.num.is_constant()

    # -- arithmetic ----------------------------------------------------------
    def _coerce_rf(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction.from_polynomial(other)
        el = FieldElement._coerce(other)
        return None if el is None else RationalFunction.constant(el)

    def __add__(self, other):
        other = self._coerce_rf(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        d1, d2 = self.den, other.den
        if d1 == d2:
            return RationalFunction(self.num + other.num, d1)
        # Henrici's trick: with g = gcd(d1, d2), d_i = g*e_i, the sum
        # (n1*e2 + n2*e1) / (g*e1*e2) only needs reduction against g.
        g = d1.gcd(d2)
        if g.degree == 0:
            t = self.num * d2 + other.num * d1
            if t.is_zero:
                return RF_ZERO
            return RationalFunction._raw(t, d1 * d2)
        e1 = d1 // g
        e2 = d2 // g
        t = self.num * e2 + other.num * e1
        if t.is_zero:
            return RF_ZERO
        h = t.gcd(g)
        if h.degree > 0:
            t = t // h
            g = g // h
        return RationalFunction._raw(t, g * e1 * e2)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce_rf(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce_rf(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RF_ZERO
        # cross-reduce before multiplying to keep intermediate degrees down
        g1 = self.num.gcd(other.den)
        g2 = other.num.gcd(self.den)
        n1 = self.num // g1 if g1.degree > 0 else self.num
        d2 = other.den // g1 if g1.degree > 0 else other.den
        n2 = other.num // g2 if g2.degree > 0 else other.num
        d1 = self.den // g2 if g2.degree > 0 else self.den
        num = n1 * n2
        den = d1 * d2
        lead = den.leading
        if not lead.is_one:
            inv = lead.inverse()
            num = num.scale(inv)
            den = den.scale(inv)
        return RationalFunction._raw(num, den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        num, den = self.den, self.num
        lead = den.leading
        if not lead.is_one:
            inv = lead.inverse()
            num = num.scale(inv)
            den = den.scale(inv)
        return RationalFunction._raw(num, den)

    def __truediv__(self, other):
        other = self._coerce_rf(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce_rf(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = RF_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def derivative(self) -> "RationalFunction":
        if self.is_polynomial():
            return RationalFunction._raw(self.num.derivative(), P_ONE)
        # with g = gcd(d, d'), d = g*u, d' = g*v:
        # (n/d)' = (n'*u - n*v) / (d*u), which avoids reducing against d^2
        n, d = self.num, self.den
        dp = d.derivative()
        g = d.gcd(dp)
        if g.degree == 0:
            return RationalFunction(n.derivative() * d - n * dp, d * d)
        u = d // g
        v = dp // g
        return RationalFunction(n.derivative() * u - n * v, d * u)

    # -- evaluation ----------------------------------------------------------
    def eval(self, x: FieldElement) -> FieldElement:
        dv = self.den.eval(x)
        if dv.is_zero:
            raise PoleError(f"evaluation at pole {x}")
        return self.num.eval(x) / dv

    def eval_complex(self, x: complex) -> complex:
        dv = self.den.eval_complex(x)
        if dv == 0:
            raise PoleError(f"evaluation at pole {x}")
        return self.num.eval_complex(x) / dv

    def subst_inverse(self) -> "RationalFunction":
        """The rational function f(1/x)."""
        n, d = self.num.degree, self.den.degree
        rn = Polynomial(tuple(reversed(self.num.coeffs)))
        rd = Polynomial(tuple(reversed(self.den.coeffs)))
        k = d - n
        if k >= 0:
            return RationalFunction(rn * Polynomial.monomial(k), rd)
        return RationalFunction(rn, rd * Polynomial.monomial(-k))

    # -- comparisons -----------------------------------------------------------
    def __eq__(self, other):
        other = self._coerce_rf(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction[{self}]"


RF_ZERO = RationalFunction._raw(P_ZERO, P_ONE)
RF_ONE = RationalFunction._raw(P_ONE, P_ONE)
RF_X = RationalFunction._raw(P_X, P_ONE)


def rf(num, den=1) -> RationalFunction:
    """Rational-constant shorthand."""
    return RationalFunction.constant(fe(num, den))


@dataclass(frozen=True)
class PartialFractionForm:
    polynomial_part: Polynomial
    pole_terms: tuple  # of (pole: FieldElement, order: int, coeff: FieldElement)

    def reassemble(self) -> RationalFunction:
        total = RationalFunction.from_polynomial(self.polynomial_part)
        for pole, order, coeff in self.pole_terms:
            total = total + RationalFunction(
                Polynomial.constant(coeff), poly_x_minus(pole) ** order)
        return total


def _series_inverse(coeffs: list[FieldElement], n: int) -> list[FieldElement]:
    """First n coefficients of 1 / (c0 + c1 t + ...), c0 != 0."""
    inv0 = coeffs[0].inverse()
    out = [inv0]
    for k in range(1, n):
        acc = ZERO
        for j in range(1, k + 1):
            cj = coeffs[j] if j < len(coeffs) else ZERO
            acc = acc + cj * out[k - j]
        out.append(-inv0 * acc)
    return out


def partial_fractions(f: RationalFunction, poles) -> PartialFractionForm:
    """Exact decomposition of f over the supplied pole locations.

    The reduced denominator must split as a product of (x - p) over the pole
    list (with multiplicity); any leftover factor raises
    UnexplainedFactorError carrying that factor.
    """
    poly_part, rem_num = f.num.divmod(f.den)
    terms = []
    den = f.den
    seen = set()
    mults = []
    for p in poles:
        p = FieldElement._coerce(p)
        if p in seen:
            continue
        seen.add(p)
        lin = poly_x_minus(p)
        m = 0
        while not den.is_zero and den.degree >= 1 and den.eval(p).is_zero:
            den = den // lin
            m += 1
        if m:
            mults.append((p, m))
    if den.degree > 0:
        raise UnexplainedFactorError(den)
    for p, m in mults:
        rest = f.den // (poly_x_minus(p) ** m)
        num_s = rem_num.shift(p)
        rest_s = rest.shift(p)
        inv = _series_inverse(list(rest_s.coeffs) + [ZERO] * m, m)
        # Taylor coefficients of rem_num/rest at p give the pole coefficients
        for j in range(1, m + 1):
            order_coeff = ZERO
            for t in range(m - j + 1):
                c = num_s.coeff(t)
                if not c.is_zero:
                    order_coeff = order_coeff + c * inv[m - j - t]
            if not order_coeff.is_zero:
                terms.append((p, j, order_coeff))
    return PartialFractionForm(poly_part, tuple(terms))


def _solve_linear(matrix, rhs):
    """Gaussian elimination over FieldElement; matrix is a list of rows."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    pivot_cols = []
    r = 0
    for c in range(m):
        pivot = next((k for k in range(r, n) if not rows[k][c].is_zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for k in range(n):
            if k != r and not rows[k][c].is_zero:
                factor = rows[k][c]
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == n:
            break
    for k in range(r, n):
        if not rows[k][m].is_zero:
            raise ArithmeticError("inconsistent linear system")
    sol = [ZERO] * m
    for row_idx, c in enumerate(pivot_cols):
        sol[c] = rows[row_idx][m]
    return sol


def antiderivative(f: RationalFunction) -> RationalFunction:
    """Exact rational antiderivative, when one exists.

    Horowitz-Ostrogradsky reduction: with Dm = gcd(den, den') and
    Ds = den/Dm, solve N = P'*Ds - P*H + S*Dm for P, S; the antiderivative is
    rational iff the squarefree remainder S vanishes, otherwise the
    obstruction S/Ds (pure log terms) is reported.
    """
    poly_quot, rem = f.num.divmod(f.den)
    poly_int = Polynomial(
        [ZERO] + [c / (k + 1) for k, c in enumerate(poly_quot.coeffs)])
    result = RationalFunction.from_polynomial(poly_int)
    if rem.is_zero:
        return result
    den = f.den
    dm = den.gcd(den.derivative())
    if dm.degree == 0:
        raise LogObstructionError(RationalFunction(rem, den))
    ds = den // dm
    h = (dm.derivative() * ds) // dm
    np_deg = dm.degree          # unknown P has degree < deg Dm
    ns_deg = ds.degree          # unknown S has degree < deg Ds
    ncols = np_deg + ns_deg
    nrows = den.degree
    matrix = [[ZERO] * ncols for _ in range(nrows)]
    # columns 0..np_deg-1: coefficients of P; the equation contribution of
    # x^k in P is x^(k-1)*k*Ds - x^k*H
    for k in range(np_deg):
        contrib = ds * Polynomial.monomial(k).derivative() - \
            h * Polynomial.monomial(k)
        for row in range(min(nrows, contrib.degree + 1)):
            matrix[row][k] = contrib.coeff(row)
    for k in range(ns_deg):
        contrib = dm * Polynomial.monomial(k)
        for row in range(min(nrows, contrib.degree + 1)):
            matrix[row][np_deg + k] = contrib.coeff(row)
    rhs = [rem.coeff(row) for row in range(nrows)]
    sol = _solve_linear(matrix, rhs)
    p_poly = Polynomial(sol[:np_deg])
    s_poly = Polynomial(sol[np_deg:])
    if not s_poly.is_zero:
        raise LogObstructionError(RationalFunction(s_poly, ds))
    return result + RationalFunction(p_poly, dm)


def laurent_series(f: RationalFunction, x0: FieldElement, nterms: int):
    """Exact local expansion f = sum c_k (x-x0)^k for k = start..start+nterms-1.

    Returns (start, [c_start, ...]).  start can be negative (pole at x0).
    """
    num_s = f.num.shift(x0)
    den_s = f.den.shift(x0)
    if f.is_zero:
        return 0, [ZERO] * nterms
    nv = next(k for k, c in enumerate(num_s.coeffs) if not c.is_zero)
    dv = next(k for k, c in enumerate(den_s.coeffs) if not c.is_zero)
    start = nv - dv
    ncoeffs = list(num_s.coeffs[nv:])
    dcoeffs = list(den_s.coeffs[dv:])
    inv = _series_inverse(dcoeffs + [ZERO] * nterms, nterms)
    out = []
    for k in range(nterms):
        acc = ZERO
        for j in range(k + 1):
            if j < len(ncoeffs):
                acc = acc + ncoeffs[j] * inv[k - j]
        out.append(acc)
    return start, out


def pole_order(f: RationalFunction, x0: FieldElement) -> int:
    """Order of the pole of f at x0 (0 when f is finite there)."""
    if f.is_zero:
        return 0
    den_s = f.den.shift(x0)
    dv = next(k for k, c in enumerate(den_s.coeffs) if not c.is_zero)
    return dv


def _reconstruct_rational(value: float) -> list:
    """Small-denominator rational candidates near a float."""
    out = []
    frac = Fraction(value)
    for limit in (1, 2, 4, 8, 16, 64, 4096, 10 ** 6, 10 ** 9):
        cand = frac.limit_denominator(limit)
        if not out or cand != out[-1]:
            out.append(cand)
    return out


def poly_roots(p: Polynomial, tol: float = 1e-12):
    """Roots of p: exact ones where reconstructible, the rest numeric.

    Numeric roots come from the numpy companion-matrix solver; each is tested
    against small-denominator Gaussian-rational candidates and kept exact when
    the candidate is verified to be a true root.  Returns
    (exact: list[(FieldElement, multiplicity)], numeric: list[complex]).
    """
    if p.degree <= 0:
        return [], []
    coeffs = [c.to_complex() for c in reversed(p.coeffs)]
    numeric_roots = np.roots(coeffs)
    exact: list = []
    remaining = p
    for z in numeric_roots:
        candidates = []
        for re_c in _reconstruct_rational(float(z.real)):
            for im_c in _reconstruct_rational(float(z.imag)):
                candidates.append(FieldElement.make(Q(re_c.numerator, re_c.denominator),
                                                    Q(im_c.numerator, im_c.denominator)))
        for cand in candidates:
            if any(cand == e for e, _ in exact):
                continue
            if abs(cand.to_complex() - z) > max(1e-6, tol):
                continue
            if remaining.eval(cand).is_zero:
                mult = 0
                lin = poly_x_minus(cand)
                while remaining.degree >= 1 and remaining.eval(cand).is_zero:
                    remaining = remaining // lin
                    mult += 1
                exact.append((cand, mult))
                break
    numeric = []
    if remaining.degree >= 1:
        rem_coeffs = [c.to_complex() for c in reversed(remaining.coeffs)]
        numeric = [complex(z) for z in np.roots(rem_coeffs)]
    return exact, numeric
