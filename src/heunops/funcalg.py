"""Closed-form function algebra: sums of r(x) * x^rho * e^{g(x)}.

Every elementary solution in the catalog lives here: r is a rational
function, rho an exact scalar exponent, and g a Laurent polynomial with no
constant term.  The algebra is closed under differentiation, and a term
keeps its key (rho, g) under d/dx:

    d/dx [r x^rho e^g] = (r' + r*h) x^rho e^g,   h = rho/x + g'.

So the k-th derivative of a term is r_k x^rho e^g with r_0 = r and
r_{k+1} = r_k' + r_k*h.  With r = N/d, r_k = N_k / (d W^k) over one frame:
this is diffop's derivative table twisted by h (diffop.DerivativeFrame),
whose rows N_k stay unreduced polynomials.  A FunctionSum caches the frame
and the rows per term, extending them only as far as an operator's order
asks, so applying a factor and then L = Q∘P to the same basis function
differentiates it once.  With op = (sum â_k d^k)/e over one denominator and
n = ord op, op applied to a term is

    sum_k â_k N_k W^(n-k)  over  e d W^n,

one poly.dot per term.  A basis function is certified annihilated when
every such numerator is zero, with no reduction at all (annihilates).
"""

from __future__ import annotations

import cmath
import math

from .diffop import DerivativeFrame, over_common_denominator
from .field import FieldElement, ONE, ZERO
from .poly import LaurentPolynomial, P_ONE, Polynomial, dot
from .ratfunc import PoleError, RationalFunction


class BranchPointError(ValueError):
    """Numeric evaluation at x = 0 with fractional power or pole exponent."""


def _poly_jet(p: Polynomial, x: complex) -> list:
    """Coefficients of p(x + t) in t, by Horner's rule in x + t; the
    constant one is p.eval_complex(x) bit for bit."""
    out = []
    for c in reversed(p.coeffs):
        out = [0j] + out
        for j in range(len(out) - 1):
            out[j] = out[j + 1] * x + out[j]
        out[0] += c.to_complex()
    return out


class ExpMonomial:
    """A single term r(x) * x^rho * e^{g(x)}.

    Normalization: integer rho is folded into the rational factor, and g may
    not carry a constant term (e^{c} for c != 0 is transcendental, so such a
    constant cannot be folded exactly and is rejected).
    """

    __slots__ = ("rat", "rho", "g")

    def __init__(self, rat: RationalFunction, rho: FieldElement = ZERO,
                 g: LaurentPolynomial | None = None):
        if not isinstance(rat, RationalFunction):
            rat = RationalFunction.constant(rat)
        rho = FieldElement._coerce(rho)
        g = g if g is not None else LaurentPolynomial.zero()
        if not g.constant_term().is_zero:
            raise ValueError("exponent with nonzero constant term")
        if rho.is_integer():
            n = rho.as_int()
            if n:
                mono = RationalFunction.from_polynomial(Polynomial.monomial(abs(n)))
                rat = rat * mono if n > 0 else rat / mono
            rho = ZERO
        self.rat = rat
        self.rho = rho
        self.g = g

    def _with_rat(self, rat: RationalFunction) -> "ExpMonomial":
        """rat x^rho e^g with this term's key."""
        m = object.__new__(ExpMonomial)
        m.rat, m.rho, m.g = rat, self.rho, self.g
        return m

    @property
    def is_zero(self) -> bool:
        return self.rat.is_zero

    def key(self):
        """Like-term key: terms merge iff they share (rho, g)."""
        return (self.rho, self.g)

    def _twisted_table(self):
        """(frame, rows): the derivative table of rat over its denominator,
        twisted by h = rho/x + g', with rows = [rat.num]."""
        h = RationalFunction.from_laurent(
            self.g.derivative() + LaurentPolynomial({-1: self.rho}))
        return DerivativeFrame(self.rat.den, h), [self.rat.num]

    def derivative(self) -> "ExpMonomial":
        frame, rows = self._twisted_table()
        frame.extend(rows, 1)
        return self._with_rat(RationalFunction(rows[1], frame.den(1)))

    def __mul__(self, other):
        if not isinstance(other, ExpMonomial):
            return NotImplemented
        return ExpMonomial(self.rat * other.rat, self.rho + other.rho,
                           self.g + other.g)

    def scale(self, c) -> "ExpMonomial":
        return ExpMonomial(self.rat * c, self.rho, self.g)

    def jet(self, x: complex, n: int) -> list:
        """First n Taylor coefficients at x, principal branches.

        Raises PoleError at a pole of r, and BranchPointError at x = 0 for
        a fractional power or an exponent pole.
        """
        num = _poly_jet(self.rat.num, x) + [0j] * n
        den = _poly_jet(self.rat.den, x) + [0j] * n
        if den[0] == 0:
            raise PoleError(f"evaluation at pole {x}")
        jet = []
        for k in range(n):  # r = num / den as a power series
            acc = num[k] - sum(den[j] * jet[k - j] for j in range(1, k + 1))
            jet.append(acc / den[0])
        factors = []
        if not self.rho.is_zero:
            if x == 0:
                raise BranchPointError("x^rho at x = 0")
            rho = self.rho.to_complex()
            # x^rho (1 + t/x)^rho = x^rho sum C(rho, k) (t/x)^k
            c = cmath.exp(rho * cmath.log(x))
            power = [c]
            for k in range(1, n):
                c = c * (rho - k + 1) / (k * x)
                power.append(c)
            factors.append(power)
        if not self.g.is_zero:
            if x == 0 and self.g.min_exponent() < 0:
                raise BranchPointError("exponent pole at x = 0")
            # g(x + t) = sum_j g_j t^j with g_j = sum_k v_k C(k, j) x^(k-j)
            g = [0j] * n
            for k, v in self.g.terms.items():
                v, binom = v.to_complex(), 1
                for j in range(1, n):
                    binom = binom * (k - j + 1) // j
                    if not binom:  # j > k >= 0: the binomial series ends
                        break
                    g[j] += v * binom * x ** (k - j)
            # e^g: E_0 = e^{g(x)}, m E_m = sum_{j=1}^m j g_j E_{m-j}
            exp = [cmath.exp(self.g.eval_complex(x))]
            for m in range(1, n):
                exp.append(sum(j * g[j] * exp[m - j]
                               for j in range(1, m + 1)) / m)
            factors.append(exp)
        for factor in factors:
            jet = [sum(jet[j] * factor[k - j] for j in range(k + 1))
                   for k in range(n)]
        return jet

    def eval_complex(self, x: complex) -> complex:
        return self.jet(x, 1)[0]

    def __eq__(self, other):
        if not isinstance(other, ExpMonomial):
            return NotImplemented
        return (self.rat == other.rat and self.rho == other.rho
                and self.g == other.g)

    def __hash__(self):
        return hash((self.rat, self.rho, self.g))

    def __str__(self):
        parts = [f"({self.rat})"]
        if not self.rho.is_zero:
            parts.append(f"x^({self.rho})")
        if not self.g.is_zero:
            parts.append(f"exp({self.g})")
        return "*".join(parts)

    def __repr__(self):
        return f"ExpMonomial[{self}]"


class FunctionSum:
    """Sum of coefficient * ExpMonomial with like terms merged."""

    # _tables caches the derivative table, (frame, [N_0, N_1, ...]) per term
    # (see the module docstring); None until a derivative asks for it.
    __slots__ = ("terms", "_tables")

    def __init__(self, terms=()):
        merged: dict = {}
        for item in terms:
            if isinstance(item, ExpMonomial):
                coeff, mono = ONE, item
            else:
                coeff, mono = item
                coeff = FieldElement._coerce(coeff)
            if mono.is_zero or coeff.is_zero:
                continue
            k = mono.key()
            if k in merged:
                prev = merged[k]
                merged[k] = prev._with_rat(prev.rat + mono.rat * coeff)
            else:
                # a lone term with coefficient 1 is kept as it is
                merged[k] = mono if coeff.is_one \
                    else mono._with_rat(mono.rat * coeff)
        self.terms = tuple(m for m in merged.values() if not m.is_zero)
        self._tables = None

    @classmethod
    def _distinct(cls, terms) -> "FunctionSum":
        """The sum of terms with pairwise distinct keys, zero ones dropped."""
        s = object.__new__(cls)
        s.terms = tuple(t for t in terms if not t.is_zero)
        s._tables = None
        return s

    @classmethod
    def single(cls, rat, rho=ZERO, g=None) -> "FunctionSum":
        return cls([ExpMonomial(rat, rho, g)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, FunctionSum):
            return NotImplemented
        return FunctionSum(list(self.terms) + list(other.terms))

    def __neg__(self):
        return FunctionSum([t.scale(-ONE) for t in self.terms])

    def __sub__(self, other):
        if not isinstance(other, FunctionSum):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "FunctionSum":
        return FunctionSum([t.scale(c) for t in self.terms])

    def _derivatives(self, n: int) -> list:
        """Per term, (frame, rows) with rows[0..n]: the k-th derivative of
        the term is rows[k] / frame.den(k) x^rho e^g.  Cached, and extended
        only as far as n."""
        tables = self._tables
        if tables is None:
            tables = self._tables = [t._twisted_table() for t in self.terms]
        for frame, rows in tables:
            frame.extend(rows, n)
        return tables

    def derivative(self) -> "FunctionSum":
        return FunctionSum._distinct(
            t._with_rat(RationalFunction(rows[1], frame.den(1)))
            for t, (frame, rows) in zip(self.terms, self._derivatives(1)))

    def jet(self, x: complex, n: int) -> list:
        """First n Taylor coefficients at x, summed over the terms."""
        out = [0j] * n
        for t in self.terms:
            for k, c in enumerate(t.jet(x, n)):
                out[k] += c
        return out

    def eval_complex(self, x: complex) -> complex:
        return self.jet(x, 1)[0]

    def __eq__(self, other):
        if not isinstance(other, FunctionSum):
            return NotImplemented
        return set(self.terms) == set(other.terms)

    def __str__(self):
        return " + ".join(str(t) for t in self.terms) if self.terms else "0"

    def __repr__(self):
        return f"FunctionSum[{self}]"


def _numerators(op, f: FunctionSum):
    """(e, [(numerator, frame) per term of f]): op applied to a term is its
    numerator over e d W^n, n = ord op, unreduced (see the module
    docstring)."""
    nums, e = over_common_denominator(op)
    n = len(nums) - 1
    out = []
    for frame, rows in f._derivatives(n):
        powers = frame.powers(n)
        terms = []
        for k, a in enumerate(nums):
            if not a.is_zero:
                p = powers[n - k]
                terms.append((1, a if p is P_ONE else a * p, rows[k]))
        out.append((dot(terms), frame))
    return e, out


def apply_op(op, f: FunctionSum) -> FunctionSum:
    """The differential operator applied to a function sum, exactly: per
    term, one dot over the cached derivative table of f, reduced once."""
    if op.is_zero:
        return FunctionSum._distinct(())
    e, numerators = _numerators(op, f)
    return FunctionSum._distinct(
        t._with_rat(RationalFunction(num, e * frame.den(op.order)))
        for t, (num, frame) in zip(f.terms, numerators))


def annihilates(op, f: FunctionSum) -> bool:
    """Whether op f = 0: every per-term numerator is zero, which needs no
    reduction."""
    return all(num.is_zero for num, _ in _numerators(op, f)[1])


def wronskian_numeric(funcs, x: complex) -> complex:
    """Wronskian determinant of the family at x (principal branches).

    Derivatives come from Taylor jets at x (Taylor-mode differentiation,
    Griewank and Walther, Evaluating Derivatives, ch. 13): row k holds
    k! times the t^k coefficient of each f(x + t).  Raises PoleError at a
    pole of a rational factor and BranchPointError at x = 0 for fractional
    powers and exponent poles.
    """
    import numpy as np

    n = len(funcs)
    columns = [f.jet(x, n) for f in funcs]
    rows = [[math.factorial(k) * column[k] for column in columns]
            for k in range(n)]
    return complex(np.linalg.det(np.array(rows, dtype=complex)))
