"""Closed-form function algebra: sums of r(x) * x^rho * e^{g(x)}.

Every elementary solution in the catalog lives here: r is a rational
function, rho an exact scalar exponent, and g a Laurent polynomial with no
constant term.  The algebra is closed under differentiation, and a term
keeps its key (rho, g) under d/dx:

    d/dx [r x^rho e^g] = (r' + r*h) x^rho e^g,   h = rho/x + g'.

So the k-th derivative of a term is r_k x^rho e^g with r_0 = r and
r_{k+1} = r_k' + r_k*h.  A FunctionSum caches this chain per term, extending
it only as far as an operator's order asks, so applying a factor and then
L = Q∘P to the same basis function differentiates it once.  Applying an
operator sum c_k d^k is then sum_k c_k*r_k per term, exactly; a basis
function is certified annihilated when the resulting sum is identically zero.
"""

from __future__ import annotations

import cmath
import math

from .field import FieldElement, ONE, ZERO
from .poly import LaurentPolynomial, Polynomial
from .ratfunc import RF_ZERO, PoleError, RationalFunction


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

    # _h caches the log-derivative factor h = rho/x + g'; None until the
    # first derivative asks for it.
    __slots__ = ("rat", "rho", "g", "_h")

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
        self._h = None

    def _with_rat(self, rat: RationalFunction) -> "ExpMonomial":
        """rat x^rho e^g with this term's key and cached h."""
        m = object.__new__(ExpMonomial)
        m.rat, m.rho, m.g, m._h = rat, self.rho, self.g, self._h
        return m

    @property
    def is_zero(self) -> bool:
        return self.rat.is_zero

    def key(self):
        """Like-term key: terms merge iff they share (rho, g)."""
        return (self.rho, self.g)

    def _step(self, r: RationalFunction) -> RationalFunction:
        """r' + r*h: the factor of d/dx [r x^rho e^g] for this term's key."""
        h = self._h
        if h is None:
            h = self._h = RationalFunction.from_laurent(
                self.g.derivative() + LaurentPolynomial({-1: self.rho}))
        return r.derivative() + r * h

    def derivative(self) -> "ExpMonomial":
        return self._with_rat(self._step(self.rat))

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

    # _chain caches the derivative chain, [r_0, r_1, ...] per term (see the
    # module docstring); None until a derivative asks for it.
    __slots__ = ("terms", "_chain")

    def __init__(self, terms=()):
        merged: dict = {}
        order: list = []
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
                merged[k] = merged[k] + mono.rat * coeff
            else:
                merged[k] = mono.rat * coeff
                order.append(k)
        out = []
        for k in order:
            if not merged[k].is_zero:
                out.append(ExpMonomial(merged[k], k[0], k[1]))
        self.terms = tuple(out)
        self._chain = None

    @classmethod
    def _distinct(cls, terms) -> "FunctionSum":
        """The sum of terms with pairwise distinct keys, zero ones dropped."""
        s = object.__new__(cls)
        s.terms = tuple(t for t in terms if not t.is_zero)
        s._chain = None
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
        """Per term, [r_0, ..., r_n]: the k-th derivative of the term is
        r_k x^rho e^g.  Cached, and extended only as far as n."""
        chain = self._chain
        if chain is None:
            chain = self._chain = [[t.rat] for t in self.terms]
        for t, rs in zip(self.terms, chain):
            while len(rs) <= n:
                rs.append(t._step(rs[-1]))
        return chain

    def derivative(self) -> "FunctionSum":
        return FunctionSum._distinct(
            t._with_rat(rs[1])
            for t, rs in zip(self.terms, self._derivatives(1)))

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


def apply_op(op, f: FunctionSum) -> FunctionSum:
    """The differential operator applied to a function sum, exactly: per
    term, sum_k c_k*r_k over the cached derivative chain of f."""
    out = []
    for t, rs in zip(f.terms, f._derivatives(len(op.coeffs) - 1)):
        acc = RF_ZERO
        for c, r in zip(op.coeffs, rs):
            if not c.is_zero:
                acc = acc + r * c
        out.append(t._with_rat(acc))
    return FunctionSum._distinct(out)


def annihilates(op, f: FunctionSum) -> bool:
    return apply_op(op, f).is_zero


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
