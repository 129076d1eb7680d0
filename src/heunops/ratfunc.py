"""Reduced rational functions over FieldElement, plus the helpers built on
them: partial fractions, rational antiderivatives, pole orders, and
exact/numeric root extraction.

poly_roots finds the roots of p's squarefree part p / gcd(p, p') with numpy,
where each is simple and so accurate to about 1e-15.  By the rational root
theorem over Z[i], a root x in Q(i) has L*x in Z[i] for the integer L of
Polynomial.root_denominator, so round(L*z)/L is the one candidate at a
numeric root z; Polynomial.deflate certifies it and counts its multiplicity
in p, and pole orders and partial fractions count multiplicities the same
way.

Normal form: gcd(num, den) = 1 and den monic.  Zero is 0/1.  With that, two
rational functions are equal iff their components are equal, which is what
makes operator equality testing trivial downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .field import FieldElement, ZERO, Q, fe
from .poly import (LaurentPolynomial, Polynomial, P_ONE, P_ZERO, P_X,
                   poly_x_minus, series_quotient)


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


def partial_fractions(f: RationalFunction, poles) -> PartialFractionForm:
    """Exact decomposition of f over the supplied pole locations.

    The reduced denominator must split as a product of (x - p) over the pole
    list (with multiplicity); any leftover factor raises
    UnexplainedFactorError carrying that factor.
    """
    poly_part, rem_num = f.num.divmod(f.den)
    distinct = []
    for p in poles:
        p = FieldElement._coerce(p)
        if not any(p == q for q in distinct):
            distinct.append(p)
    # f.den(x + p) = x^m rest_s(x): m is the multiplicity of p
    mults = []
    for p in distinct:
        shifted = f.den.shift(p)
        m = shifted.valuation()
        if m:
            mults.append((p, m, shifted))
    if sum(m for _, m, _ in mults) != f.den.degree:
        leftover = f.den
        for p, m, _ in mults:
            leftover = leftover // (poly_x_minus(p) ** m)
        raise UnexplainedFactorError(leftover)
    terms = []
    for p, m, shifted in mults:
        # the Taylor coefficient m - j of rem_num/rest_s at p is the
        # coefficient of 1/(x - p)^j
        series = series_quotient(rem_num.shift(p), shifted, m, m)
        for j in range(1, m + 1):
            if not series[m - j].is_zero:
                terms.append((p, j, series[m - j]))
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


def pole_order(f: RationalFunction, x0: FieldElement) -> int:
    """Order of the pole of f at x0 (0 when f is finite there): the
    multiplicity of x0 as a root of the reduced denominator."""
    return f.den.deflate(x0)[1]


#: Bits of L*(1 + |z|) from which a double-precision root no longer pins
#: round(L*z), so that z is refined in mpmath first.
_FLOAT_BITS = 45


def _numpy_roots(p: Polynomial):
    return np.roots([c.to_complex() for c in reversed(p.coeffs)])


def _rounded_root(s: Polynomial, z: complex, lead: int) -> FieldElement:
    """round(lead*z)/lead, the one Gaussian rational x with lead*x in Z[i]
    that can be the root of s at z.  Rounding is exact while |z - x| <
    1/(2 lead); when lead*(1 + |z|) reaches 2^_FLOAT_BITS, z is first refined
    by Newton's method on s, whose roots are simple, at that many digits
    plus 20."""
    size = math.log2(lead) + math.log2(1 + abs(z))
    if size < _FLOAT_BITS:
        re, im = round(lead * z.real), round(lead * z.imag)
    else:
        with mpmath.workdps(math.ceil(size * math.log10(2)) + 20):
            cs = [c.to_mpc(mpmath.mp) for c in reversed(s.coeffs)]
            x = mpmath.mpc(z)
            for _ in range(100):
                value, slope = mpmath.polyval(cs, x, derivative=True)
                if not slope:
                    break
                step = value / slope
                x -= step
                if abs(step) <= 2 ** 10 * mpmath.mp.eps * (1 + abs(x)):
                    break
            re, im = (int(mpmath.nint(lead * part))
                      for part in (x.real, x.imag))
    return FieldElement.make(Q(re, lead), Q(im, lead))


def poly_roots(p: Polynomial):
    """Roots of p: exact ones in Q(i), the rest numeric.

    The numpy companion-matrix solver finds the roots of the squarefree part
    s = p / gcd(p, p'), each simple, to about 1e-15.  With L =
    s.root_denominator(), every root x in Q(i) has L*x in Z[i] (the rational
    root theorem over Z[i]), so the only candidate at a numeric root z is
    round(L*z)/L (see _rounded_root).  Polynomial.deflate certifies it and
    divides out its multiplicity in p; the numeric roots are those of what
    is left of p, with multiplicity.  When L is None (mixed radicands) every
    root is numeric.  Returns (exact: list[(FieldElement, multiplicity)],
    numeric: list[complex]).
    """
    if p.degree <= 0:
        return [], []
    g = p.gcd(p.derivative())
    s = p if g.degree == 0 else p // g
    roots = _numpy_roots(s)
    lead = s.root_denominator()
    exact: list = []
    remaining = p
    if lead is not None:
        for z in roots:
            x = _rounded_root(s, complex(z), lead)
            remaining, mult = remaining.deflate(x)
            if mult:
                exact.append((x, mult))
    if remaining is not s:
        roots = _numpy_roots(remaining) if remaining.degree >= 1 else []
    return exact, [complex(z) for z in roots]
