"""Linear differential operators with rational-function coefficients.

A DiffOp is a coefficient list indexed by derivative order:
coeffs[k] multiplies d^k/dx^k.  Composition expands A∘B through the Leibniz
rule; the commutator, gauge conjugation by e^{g}, and application to rational
functions are built on top of it.

Products run over one common denominator (Bronstein and Petkovšek, *An
introduction to pseudo-linear algebra*, 1996).  Each operand's coefficients
are brought over a common denominator: A = (sum â_i d^i)/e and
B = (sum N_j d^j)/d, where e and d are the lcm of the coefficients'
denominators for an operator built from coefficients, and the denominator
its kernel built for a product.  One derivative table serves both operator
products and the application of an operator to a closed form r x^rho e^g
(funcalg.apply_op).  For r = N/d, with the log-derivative h = H/E of
x^rho e^g (no twist for a product), let g = gcd(d, d'), u = d/g,
v = d'/g, W = lcm(u, E) and T = v (W/u) - H (W/E).  The k-th derivative
of r x^rho e^g is N_k/(d W^k) x^rho e^g, with polynomial numerators

    N_{k+1} = N_k' W - N_k (T + k W'),

so one gcd serves the whole table (DerivativeFrame).  With no twist, W = u
and T = v, and coefficient k of A∘B is

    sum C(i, m) â_i N_{j,i-m} u^(n-(i-m))  over  e d u^n,   m + j = k,

with n = ord A and N_{j,t} the numerator of the t-th derivative of b_j.
Each step of the derivative table and each output coefficient is one
poly.dot, which sums the products on integer lists when the operands are
rational.  The commutator subtracts its two unreduced products over the lcm
of their denominators.  The terms that take no derivative of the right
operand (m = i, t = 0) are â_i N_j / (e d) in both A∘B and B∘A and cancel
exactly, so the commutator builds neither, nor the power u^n that each
product multiplies into them.  gauge_transform brings op and the powers
(d + g')^k over common denominators the same way, so each of its
coefficients is one dot.

A product (compose, commutator, gauge_transform) holds only this form: its
numerators over one denominator, unreduced, with zero top numerators
stripped.  Each coefficient is reduced when coeffs is first read, once.
order and is_zero read the form, and == cross-multiplies two forms,
x/da == y/db iff x db == y da, so a zero test or a comparison of products
costs no gcd (a normal form suffices for them; the reduced coefficients are
the canonical one: Geddes, Czapor and Labahn, *Algorithms for Computer
Algebra*, 1992, ch. 3).  A DiffOp is immutable, so its coefficients, its
common-denominator form and its derivative table are built once and cached
on it (coeffs, over_common_denominator, _rows); the table grows only as far
as a product asks.
"""

from __future__ import annotations

from math import comb

from .poly import LaurentPolynomial, P_ONE, P_ZERO, Polynomial, dot
from .ratfunc import RF_ONE, RF_ZERO, RationalFunction


class DiffOp:
    # _coeffs holds the reduced coefficients, None for a product until one
    # is read; _common and _table cache over_common_denominator and _rows.
    # A DiffOp is immutable, so each is built at most once per operator
    __slots__ = ("_coeffs", "_common", "_table")

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
        self._coeffs = tuple(cs)
        self._common = self._table = None

    @classmethod
    def _raw(cls, cs: list) -> "DiffOp":
        while cs and cs[-1].is_zero:
            cs.pop()
        op = object.__new__(cls)
        op._coeffs = tuple(cs)
        op._common = op._table = None
        return op

    @classmethod
    def _product_form(cls, nums: list, den: Polynomial) -> "DiffOp":
        """The operator sum (nums[k] / den) d^k, its coefficients reduced
        only when read."""
        while nums and nums[-1].is_zero:
            nums.pop()
        if not nums:
            return cls._raw(nums)
        op = object.__new__(cls)
        op._coeffs = op._table = None
        op._common = tuple(nums), den
        return op

    @property
    def coeffs(self) -> tuple:
        """The reduced coefficients; coeffs[k] multiplies d^k."""
        cs = self._coeffs
        if cs is None:
            nums, den = self._common
            cs = self._coeffs = tuple(RationalFunction(num, den)
                                      for num in nums)
        return cs

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
        return self.order < 0

    @property
    def order(self) -> int:
        """Operator order; the zero operator reports -1.  A product reads
        it off its numerators, with no reduction."""
        cs = self._coeffs
        return (len(self._common[0]) if cs is None else len(cs)) - 1

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
        """Operator product self∘other (apply other first)."""
        if self.is_zero or other.is_zero:
            return DiffOp.zero()
        return DiffOp._product_form(*_product(self, other))

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
        """Equal reduced coefficients.  Unless both sides hold them, the
        numerators are cross-multiplied over the two common denominators,
        x/da == y/db iff x db == y da, with no reduction."""
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self._coeffs is not None and other._coeffs is not None:
            return self._coeffs == other._coeffs
        if self.order != other.order:
            return False
        (xs, da), (ys, db) = (over_common_denominator(self),
                              over_common_denominator(other))
        if da == db:
            return xs == ys
        return all(x * db == y * da for x, y in zip(xs, ys))

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


def _join(a: Polynomial, b: Polynomial) -> Polynomial:
    """lcm of two monic polynomials.  Equal operands, and one that divides
    the other, cost no gcd."""
    if b.degree <= 0 or a == b:
        return a
    if a.degree <= 0:
        return b
    if a.degree > b.degree:
        if (a % b).is_zero:
            return a
    elif b.degree > a.degree and (b % a).is_zero:
        return b
    return a * (b // a.gcd(b))


def over_common_denominator(op: DiffOp):
    """(numerators, den): op's coefficients over a common denominator, the
    numerators as a tuple.  For an operator built from coefficients den is
    the lcm of their denominators, built once; a product's is the form its
    kernel built, which may carry factors that cancel on reduction."""
    if op._common is None:
        den = P_ONE
        for c in op.coeffs:
            den = _join(den, c.den)
        op._common = tuple(
            c.num if c.den == den else
            c.num * (den if c.den.degree <= 0 else den // c.den)
            for c in op.coeffs), den
    return op._common


class DerivativeFrame:
    """The frame (W, T, W') of the derivative table over a denominator d,
    optionally twisted by a log-derivative h (see the module docstring):
    rows[k] / (d W^k) is the k-th derivative factor of rows[0] / d."""

    __slots__ = ("d", "w", "t", "wp", "plain", "_powers")

    def __init__(self, d: Polynomial, h: RationalFunction | None = None):
        u, v = P_ONE, P_ZERO  # d = 1
        if d.degree > 0:
            dp = d.derivative()
            g = d.gcd(dp)
            u, v = (d // g, dp // g) if g.degree > 0 else (d, dp)
        w, t = u, v
        if h is not None:
            w = _join(u, h.den)
            t = v * (w // u) - h.num * (w // h.den)
        self.d, self.w, self.t = d, w, t
        self.wp = w.derivative() if w.degree > 0 else P_ZERO
        # W = 1 and T = 0: the rows are plain derivatives
        self.plain = w.degree <= 0 and t.is_zero
        self._powers = [P_ONE]

    def extend(self, rows: list, n: int) -> None:
        """Extend a nonempty row list in place to rows[0..n]."""
        w, t, wp, plain = self.w, self.t, self.wp, self.plain
        for k in range(len(rows) - 1, n):
            num = rows[k]
            rows.append(num.derivative() if plain else
                        dot([(1, num.derivative(), w), (-1, num, t),
                             (-k, num, wp)]))

    def powers(self, n: int) -> list:
        """[W^0, ..., W^n] (at least), cached; each is P_ONE itself when
        W = 1."""
        powers = self._powers
        while len(powers) <= n:
            powers.append(powers[-1] * self.w if self.w.degree > 0 else P_ONE)
        return powers

    def den(self, k: int) -> Polynomial:
        """d W^k, the denominator of rows[k]."""
        p = self.powers(k)[k]
        return self.d if p is P_ONE else self.d * p


def _rows(op: DiffOp, n: int):
    """(frame, table): the DerivativeFrame over op's common denominator d
    and table[j][t], the numerator over d u^t of the t-th derivative of
    coefficient j, for t <= n at least (an empty row for a zero
    coefficient).  Cached, and extended only as far as n."""
    cached = op._table
    if cached is None:
        nums, d = over_common_denominator(op)
        cached = op._table = (DerivativeFrame(d),
                              [[] if num.is_zero else [num] for num in nums])
    frame, table = cached
    for row in table:
        if row:
            frame.extend(row, n)
    return cached


def _product(a: DiffOp, b: DiffOp, first: int = 0):
    """a∘b without the terms that take fewer than `first` derivatives of b:
    its numerators over the one denominator e d u^n, unreduced (see the
    module docstring)."""
    an, e = over_common_denominator(a)
    n = len(an) - 1
    frame, table = _rows(b, n)
    powers = frame.powers(n)
    # terms[k]: the (C(i, t), â_i u^(n-t), N_{j,t}) triples of coefficient k
    terms = [[] for _ in range(n + len(table))]
    for i, num in enumerate(an):
        if num.is_zero:
            continue
        for t in range(first, i + 1):
            # a_i's share of every term that takes t derivatives of b
            c = comb(i, t)
            p = powers[n - t]
            w = num if p is P_ONE else num * p
            for j, row in enumerate(table):
                if t < len(row):
                    terms[i - t + j].append((c, w, row[t]))
    den = frame.den(n)
    return [dot(ts) for ts in terms], e if den is P_ONE else e * den


def compose(a: DiffOp, b: DiffOp) -> DiffOp:
    return a.compose(b)


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] = a∘b - b∘a, both products subtracted before reduction.  Their
    t = 0 terms, â_i N_j d^(i+j) / (e d), cancel, so neither is built."""
    if a.is_zero or b.is_zero:
        return DiffOp.zero()
    (x, ex), (y, ey) = _product(a, b, first=1), _product(b, a, first=1)
    den = _join(ex, ey)
    if den != ex:
        m = den // ex
        x = [p * m for p in x]
    if den != ey:
        m = den // ey
        y = [q * m for q in y]
    return DiffOp._product_form([p - q for p, q in zip(x, y)], den)


def gauge_transform(op: DiffOp, g: LaurentPolynomial) -> DiffOp:
    """Conjugation e^{-g} ∘ op ∘ e^{g}.

    Since e^{-g} d e^{g} = d + g' and conjugation is an algebra morphism, the
    result is sum_k c_k (d + g')^k; one code path covers every exponent shape
    (A*x, x^3/3 - sigma*x, nu/x, ...).  With op = (sum â_k d^k)/e and every
    power brought over the lcm D of their denominators, coefficient j is
    sum â_k P_{k,j} over e D, one dot and one reduction.
    """
    nums, e = over_common_denominator(op)
    conjugated_d = DiffOp([RationalFunction.from_laurent(g.derivative()),
                           RF_ONE])
    # (numerators, den) of (d + g')^k, from the identity up
    powers = [([P_ONE], P_ONE)]
    power = conjugated_d
    for k in range(1, len(nums)):
        if k > 1:
            power = power.compose(conjugated_d)
        powers.append(over_common_denominator(power))
    den = P_ONE
    for _, pd in powers:
        den = _join(den, pd)
    terms = [[] for _ in nums]
    for num, (pn, pd) in zip(nums, powers):
        if not num.is_zero:
            m = None if pd == den else den // pd
            for j, p in enumerate(pn):
                terms[j].append((1, num, p if m is None else p * m))
    return DiffOp._product_form([dot(ts) for ts in terms], e * den)
