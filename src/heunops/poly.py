"""Dense univariate polynomials and Laurent polynomials over FieldElement.

Polynomial stands for ascending coefficients with a nonzero leading
coefficient (the zero polynomial is the empty tuple).  Everything is
schoolbook: catalog degrees stay far below the point where asymptotics
matter.  Products, division and gcds of rational polynomials run over Python
ints.  Products over a real quadratic extension Q(sqrt d), d rational, run
over Python ints too, as pairs of integer lists over one denominator.  A
polynomial that such a kernel returns keeps that integer form as its value:
degree, equality, sums, rational scaling and the next kernel read the form,
and the FieldElement coefficient tuple is built only when something asks for
`coeffs`.  Gaussian operands, a non-real d and mixed radicands take the
FieldElement loops, as do division and gcds over any extension.  The
Taylor shift of a rational polynomial by a rational point is an integer
Horner shift over the same form.  dot, the
sum of products c*a*b that operator products are made of, accumulates
rational operands on one integer list over one denominator, and operands
over one real Q(sqrt d) on two.  series_quotient, the Taylor coefficients
of a quotient, runs over the integers for rational operands.  No other
module reads the integer form: they go through eval, vanishes_at, deflate,
root_denominator, valuation, dot, series_quotient, from_ints and the
arithmetic.
"""

from __future__ import annotations

import math

from .field import FieldElement, ONE, ZERO, _gaussian, _real_quadratic


def _coerce_fe(value) -> FieldElement:
    el = FieldElement._coerce(value)
    if el is None:
        raise TypeError(f"cannot coerce {value!r} to FieldElement")
    return el


class Polynomial:
    # _ints is the integer form: (ints, den) when coefficient k is
    # ints[k] / den, (ints, den, roots, d) when it is
    # (ints[k] + roots[k]*sqrt(d)) / den for one real radicand d (stored as
    # FieldElement stores it, with some roots[k] nonzero), or False for any
    # other polynomial; None until the first integer kernel asks for it.
    # A form has no zero top entry, but is not reduced: den may share a
    # factor with every entry.  A kernel's result stores only its form, and
    # _coeffs is None until coeffs is first read.  The kernels never mutate
    # the lists.
    __slots__ = ("_coeffs", "_ints")

    def __init__(self, coeffs=()):
        cs = [_coerce_fe(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self._coeffs = tuple(cs)
        self._ints = None

    @classmethod
    def _raw(cls, cs):
        p = object.__new__(cls)
        while cs and cs[-1].is_zero:
            cs.pop()
        p._coeffs = tuple(cs)
        p._ints = None
        return p

    @property
    def coeffs(self) -> tuple:
        """Ascending FieldElement coefficients, built from the integer form
        on first use."""
        cs = self._coeffs
        if cs is None:
            form = self._ints
            cs = self._coeffs = tuple(_form_entry(form, k)
                                      for k in range(len(form[0])))
        return cs

    def _form(self):
        """The integer form (see _ints), computed on first use."""
        form = self._ints
        if form is None:
            form = self._ints = _integer_form(self._coeffs)
        return form

    def _int_form(self):
        """(ints, den) with ascending integer ints, or False if not rational."""
        form = self._ints
        if form is None:
            form = self._form()
        return form if form and len(form) == 2 else False

    @classmethod
    def from_ints(cls, ints, den: int = 1) -> "Polynomial":
        """The polynomial sum_k ints[k]/den x^k, for integers ints and a
        nonzero integer den, holding only its integer form."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        return _from_form((list(ints), den))

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c=ONE) -> "Polynomial":
        return cls([ZERO] * k + [c])

    # -- structure -----------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        cs = self._coeffs
        return (len(cs) if cs is not None else len(self._ints[0])) - 1

    @property
    def is_zero(self) -> bool:
        cs = self._coeffs
        return not (cs if cs is not None else self._ints[0])

    @property
    def leading(self) -> FieldElement:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        cs = self._coeffs
        return cs[-1] if cs is not None else _form_entry(self._ints, -1)

    def coeff(self, k: int) -> FieldElement:
        return self.coeffs[k] if 0 <= k <= self.degree else ZERO

    def valuation(self) -> int:
        """The number of low zero coefficients: p = x^k q with q(0) != 0."""
        if self.is_zero:
            raise ValueError("zero polynomial has no valuation")
        form = self._form()
        if not form:
            return next(k for k, c in enumerate(self.coeffs) if not c.is_zero)
        parts = form[::2]  # (ints,), or (ints, roots) over Q(sqrt d)
        k = 0
        while not any(part[k] for part in parts):
            k += 1
        return k

    def is_constant(self) -> bool:
        return self.degree <= 0

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        fa, fb = self._form(), other._form()
        if fa and fb:
            form = _form_add(fa, fb)
            if form:
                return _from_form(form)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for k, c in enumerate(b):
            cs[k] = cs[k] + c
        return Polynomial._raw(cs)

    __radd__ = __add__

    def __neg__(self):
        form = self._form()
        if form:
            # the entries stay, the denominator changes sign
            return _from_form((form[0], -form[1], *form[2:]))
        return Polynomial._raw([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(_coerce_fe(other))
        fa, fb = self._form(), other._form()
        if fa and fb:
            if not (fa[0] and fb[0]):
                return Polynomial._raw([])
            if len(fa) == len(fb) == 2:
                return _from_form((_convolve(fa[0], fb[0]), fa[1] * fb[1]))
            form = _ext_mul(fa, fb)
            if form:
                return _from_form(form)
        a, b = self.coeffs, other.coeffs
        if not (a and b):
            return Polynomial._raw([])
        cs = [ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_zero:
                continue
            for j, cb in enumerate(b):
                cs[i + j] = cs[i + j] + ca * cb
        return Polynomial._raw(cs)

    __rmul__ = __mul__

    def scale(self, c: FieldElement) -> "Polynomial":
        if c.is_zero:
            return Polynomial._raw([])
        if c.is_rational:
            form = self._form()
            if form:
                n, m = c.ar.numerator, c.ar.denominator
                ints, den, *ext = form
                if ext:
                    ext[0] = [n * y for y in ext[0]]
                return _from_form(([n * x for x in ints], den * m, *ext))
        return Polynomial._raw([a * c for a in self.coeffs])

    def __pow__(self, n: int):
        result = Polynomial.constant(ONE)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divmod(self, other: "Polynomial"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial._raw([]), self
        fa, fb = self._int_form(), other._int_form()
        if fa and fb:
            quot, rem = _rational_divmod(fa, fb)
            return _from_form(quot), _from_form(rem)
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        quot = [ZERO] * (dq + 1)
        inv_lead = other.leading.inverse()
        oc = other.coeffs
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            quot[k] = c
            if not c.is_zero:
                for j, b in enumerate(oc):
                    rem[k + j] = rem[k + j] - c * b
        return Polynomial._raw(quot), Polynomial._raw(rem[:other.degree])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero or self.leading.is_one:
            return self
        return self.scale(self.leading.inverse())

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor.

        Rational operands go through the primitive remainder sequence over
        the integers (Knuth, TAOCP vol. 2, 4.6.1), which never builds a
        Fraction until the monic result.  A Gaussian or extension operand is
        first replaced by an integer multiple of its norm down to Q[x]: a
        common factor of the operands divides both norms, so coprime norms
        prove the gcd is 1 (Trager 1976).  Otherwise monic Euclid decides.
        """
        da, db = self.degree, other.degree
        if da < 0 or db < 0:
            return (other if da < 0 else self).monic()
        if da == 0 or db == 0:
            return P_ONE
        fa, fb = self._int_form(), other._int_form()
        if fa and fb:
            return _rational_gcd(fa[0], fb[0])
        na = fa[0] if fa else _norm_ints(self.coeffs)
        nb = fb[0] if fb else _norm_ints(other.coeffs)
        if na and nb and _prs_gcd(na, nb) is None:
            return P_ONE
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "Polynomial":
        form = self._form()
        if not form:
            return Polynomial._raw(
                [k * c for k, c in enumerate(self.coeffs)][1:])
        ints = [k * x for k, x in enumerate(form[0])][1:]
        if len(form) == 2:
            return _from_form((ints, form[1]))
        roots = [k * x for k, x in enumerate(form[2])][1:]
        return _from_form((ints, form[1], roots, form[3]))

    def shift(self, c: FieldElement) -> "Polynomial":
        """Taylor shift: the polynomial p(x + c).

        For rational p and c = r/s this is the integer Horner shift by r
        (von zur Gathen and Gerhard, ISSAC 1997) of s^(n-1) p(x/s), whose
        entry j is then scaled by s^j; otherwise Horner in x + c over
        FieldElement.
        """
        if self.is_zero:
            return self
        form = self._int_form() if c.is_rational else False
        if form:
            return _from_form(_int_shift(*form, int(c.ar.numerator),
                                         int(c.ar.denominator)))
        n = len(self.coeffs)
        out = [self.coeffs[-1]]
        for k in range(n - 2, -1, -1):
            new = [ZERO] * (len(out) + 1)
            for j, v in enumerate(out):
                new[j + 1] = new[j + 1] + v
                new[j] = new[j] + v * c
            new[0] = new[0] + self.coeffs[k]
            out = new
        return Polynomial._raw(out)

    def eval(self, x: FieldElement) -> FieldElement:
        form = self._int_form() if x.d is None else False
        if form:
            return _gaussian_horner(*form, *_gaussian_parts(x.ar, x.ai))
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def vanishes_at(self, x: FieldElement) -> bool:
        """Whether p(x) = 0.  For rational p with leading integer entry L and
        x in Q(i), a root makes L*x an algebraic integer, so L*x lies in Z[i]
        and the denominators of both parts of x divide L (the rational root
        theorem over Z[i]); eval runs over the integers too."""
        form = self._int_form() if x.d is None else False
        if form and form[0]:
            lead = form[0][-1]
            if lead % x.ar.denominator or lead % x.ai.denominator:
                return False
        return self.eval(x).is_zero

    def root_denominator(self) -> int | None:
        """An integer L with L*x in Z[i] for every root x in Q(i): the
        leading coefficient of the primitive integer form of p, or of its
        norm down to Q[x] when p has Gaussian or sqrt(d) coefficients.
        None when p is zero or its coefficients mix radicands."""
        form = self._int_form()
        ints = form[0] if form else _norm_ints(self.coeffs)
        if not ints:
            return None
        return abs(ints[-1]) // math.gcd(*ints)

    def deflate(self, x: FieldElement):
        """(q, m) with p = (t - x)^m q and q(x) != 0, for nonzero p; q is p
        itself when m = 0."""
        lin = poly_x_minus(x)
        q, m = self, 0
        while q.degree >= 1 and q.vanishes_at(x):
            q, m = q // lin, m + 1
        return q, m

    def eval_complex(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c.to_complex()
        return acc

    # -- comparisons ----------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if a is not None and b is not None:
            return a == b
        # one side holds only a form; a polynomial without one (form False)
        # has a Gaussian part, mixed radicands or a non-real d, so it equals
        # no polynomial that has a form
        fa, fb = self._form(), other._form()
        if not (fa and fb) or len(fa) != len(fb) \
                or len(fa[0]) != len(fb[0]) or fa[3:] != fb[3:]:
            return False
        da, db = fa[1], fb[1]
        # fa[::2] is (ints,), or (ints, roots) over Q(sqrt d)
        return all(x * db == y * da
                   for part_a, part_b in zip(fa[::2], fb[::2])
                   for x, y in zip(part_a, part_b))

    def __hash__(self):
        # the coefficients are canonical; forms are not
        return hash(self.coeffs)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            cs = str(c)
            if k == 0:
                parts.append(cs)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                parts.append(xs if cs == "1" else f"({cs})*{xs}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial[{self}]"


P_ZERO = Polynomial()
P_ONE = Polynomial.constant(ONE)
P_X = Polynomial.monomial(1)


def poly_x_minus(c) -> Polynomial:
    return Polynomial([-_coerce_fe(c), ONE])


def dot(terms) -> Polynomial:
    """The polynomial sum c*a*b over a sequence of (c, a, b) triples, each c
    an int.  When every operand is rational, the products accumulate on one
    integer list over the lcm of their denominators; when every operand is
    rational or over one real extension Q(sqrt d), d = p/q, they accumulate
    on two lists, ints and roots, over q times that lcm, as _ext_mul does
    for one product.  The result holds only that integer form.  Gaussian operands and mixed
    radicands take Polynomial arithmetic."""
    forms, d = [], None
    for c, a, b in terms:
        fa, fb = a._form(), b._form()
        if not (fa and fb):
            return _dot_loop(terms)
        if len(fa) + len(fb) > 4:
            for f in (fa, fb):
                if len(f) == 4:
                    if d is None:
                        d = f[3]
                    elif f[3] != d:
                        return _dot_loop(terms)
        if c and fa[0] and fb[0]:
            forms.append((c, fa, fb))
    if not forms:
        return P_ZERO
    if d is not None:
        return _ext_dot(forms, d)
    den = math.lcm(*(fa[1] * fb[1] for _, fa, fb in forms))
    out = [0] * (max(len(fa[0]) + len(fb[0]) for _, fa, fb in forms) - 1)
    for c, (a, da), (b, db) in forms:
        m = c * (den // (da * db))
        for i, x in enumerate(a):
            if x:
                x *= m
                for j, y in enumerate(b):
                    out[i + j] += x * y
    return _from_form((out, den))


def _dot_loop(terms) -> Polynomial:
    acc = P_ZERO
    for c, a, b in terms:
        acc = acc + a * b * c
    return acc


def _ext_dot(forms, d) -> Polynomial:
    """The sum c*a*b over (c, form a, form b) triples with nonzero c, a and
    b, rational or over Q(sqrt d), on two integer lists over one
    denominator: with d = p/q,
    (A1 + B1 sqrt d)(A2 + B2 sqrt d) q
        = q A1A2 + p B1B2 + q (A1B2 + B1A2) sqrt d."""
    p, q = d[0].numerator, d[0].denominator
    den = math.lcm(*(fa[1] * fb[1] for _, fa, fb in forms))
    int_terms, root_terms = [], []
    for c, fa, fb in forms:
        m = c * (den // (fa[1] * fb[1]))
        a, b, mq = fa[0], fb[0], m * q
        int_terms.append((mq, a, b))
        if len(fb) == 4:
            root_terms.append((mq, a, fb[2]))
        if len(fa) == 4:
            root_terms.append((mq, fa[2], b))
            if len(fb) == 4:
                int_terms.append((m * p, fa[2], fb[2]))
    size = max(len(fa[0]) + len(fb[0]) for _, fa, fb in forms) - 1
    ints, roots = [0] * size, [0] * size
    for out, products in ((ints, int_terms), (roots, root_terms)):
        for m, a, b in products:
            for i, x in enumerate(a):
                if x:
                    x *= m
                    for j, y in enumerate(b):
                        out[i + j] += x * y
    return _from_form((ints, den * q, roots, d))


def series_quotient(a: Polynomial, b: Polynomial, skip: int,
                    n: int) -> list:
    """The first n Taylor coefficients at 0 of a / (b / x^skip), where the
    first skip coefficients of b are zero and the next, b0, is not.

    For rational a = A/da and b = B/db, with B the entries from skip on,
    the coefficient k is db Q_k / (da b0^(k+1)) for the integers
    Q_k = A_k b0^k - sum_{i=1..k} B_i Q_(k-i) b0^(i-1); otherwise the
    FieldElement recurrence c_k = (a_k - sum_i b_i c_(k-i)) / b0 runs."""
    fa, fb = a._int_form(), b._int_form()
    if fa and fb:
        (ints, da), (rest, db) = fa, (fb[0][skip:], fb[1])
        b0 = rest[0]
        powers = [1]
        for _ in range(n):
            powers.append(powers[-1] * b0)
        qs = []
        for k in range(n):
            acc = ints[k] * powers[k] if k < len(ints) else 0
            for i in range(1, min(k, len(rest) - 1) + 1):
                acc -= rest[i] * qs[k - i] * powers[i - 1]
            qs.append(acc)
        return [FieldElement.from_rational(db * x, da * powers[k + 1])
                for k, x in enumerate(qs)]
    rest = b.coeffs[skip:]
    inv0 = rest[0].inverse()
    out = []
    for k in range(n):
        acc = a.coeff(k)
        for i in range(1, min(k, len(rest) - 1) + 1):
            acc = acc - rest[i] * out[k - i]
        out.append(acc * inv0)
    return out


# Integer kernels.  Integer polynomials are lists of Python ints, ascending
# like Polynomial.coeffs except in the remainder sequence, which keeps them
# descending, leading coefficient first.

def _convolve(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_shift(ints: list, den: int, r: int, s: int):
    """Integer form of p(x + r/s) for nonzero p = ints/den and s > 0:
    b_k = ints[k] * s^(n-1-k) is shifted in place by r, then entry j is
    b_j * s^j over den * s^(n-1)."""
    n = len(ints)
    b = [x * s ** (n - 1 - k) for k, x in enumerate(ints)]
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            b[j] += r * b[j + 1]
    return [x * s ** j for j, x in enumerate(b)], den * s ** (n - 1)


def _gaussian_horner(ints, den, p, q, m) -> FieldElement:
    """sum_k (ints[k] / den) * ((p + qi) / m)^k, by Horner's rule over
    Gaussian integers: the coefficient of degree k is scaled by m^(n-1-k)
    so that no division happens before the end."""
    x = y = 0
    scale = 1
    for a in reversed(ints):
        x, y = x * p - y * q + a * scale, x * q + y * p
        scale *= m
    # x + yi = m^(n-1) * den * value, and scale = m^n
    return _gaussian(x * m, y * m, den * scale)


def _gaussian_parts(re, im):
    """(p, q, m) over the integers with re + im*i = (p + qi) / m."""
    m = math.lcm(re.denominator, im.denominator)
    return (re.numerator * (m // re.denominator),
            im.numerator * (m // im.denominator), m)


def _scaled(qs: list, den: int) -> list:
    return [q.numerator * (den // q.denominator) for q in qs]


def _integer_form(coeffs):
    """The integer form of a coefficient list (see Polynomial._ints)."""
    d = None
    for c in coeffs:
        if c.ai:
            return False
        if c.d is not None:
            if c.bi or (d is not None and c.d != d):
                return False
            d = c.d
    ars = [c.ar for c in coeffs]
    if d is None:
        den = math.lcm(*(q.denominator for q in ars))
        return _scaled(ars, den), den
    if d[1]:
        return False
    brs = [c.br for c in coeffs]
    den = math.lcm(*(q.denominator for q in ars + brs))
    return _scaled(ars, den), den, _scaled(brs, den), d


def _ext_mul(fa, fb):
    """Integer form of the product of two integer forms, at least one of
    them over Q(sqrt d), or None when their radicands differ.  With d = p/q:
    (A1 + B1 sqrt d)(A2 + B2 sqrt d)
        = (q A1A2 + p B1B2 + q (A1B2 + B1A2) sqrt d) / q."""
    if len(fa) < len(fb):
        fa, fb = fb, fa
    a, b, den, d = fa[0], fb[0], fa[1] * fb[1], fa[3]
    if len(fb) == 2:
        ints, roots = _convolve(a, b), _convolve(fa[2], b)
    elif fb[3] != d:
        return None
    else:
        p, q = d[0].numerator, d[0].denominator
        ints = [q * x + p * y
                for x, y in zip(_convolve(a, b), _convolve(fa[2], fb[2]))]
        roots = [q * (x + y)
                 for x, y in zip(_convolve(a, fb[2]), _convolve(fa[2], b))]
        den *= q
    return ints, den, roots, d


def _form_entry(form, k: int) -> FieldElement:
    """Coefficient k of the polynomial an integer form stands for."""
    if len(form) == 2:
        return FieldElement.from_rational(form[0][k], form[1])
    return _real_quadratic(form[0][k], form[2][k], form[1], form[3])


def _lin(a: list, ma: int, b: list, mb: int) -> list:
    """ma*a + mb*b for ascending integer lists of any lengths."""
    if len(a) < len(b):
        a, ma, b, mb = b, mb, a, ma
    out = [ma * x for x in a]
    for k, y in enumerate(b):
        out[k] += mb * y
    return out


def _form_add(fa, fb):
    """Integer form of the sum of two integer forms, over the lcm of their
    denominators, or None when their radicands differ."""
    if len(fa) < len(fb):
        fa, fb = fb, fa
    if len(fb) == 4 and fb[3] != fa[3]:
        return None
    g = math.gcd(fa[1], fb[1])
    ma, mb = fb[1] // g, fa[1] // g
    ints = _lin(fa[0], ma, fb[0], mb)
    if len(fa) == 2:
        return ints, fa[1] * ma
    roots_b = fb[2] if len(fb) == 4 else [0] * len(fb[0])
    return ints, fa[1] * ma, _lin(fa[2], ma, roots_b, mb), fa[3]


def _from_form(form) -> Polynomial:
    """The polynomial an integer form stands for, holding only the form:
    zero top entries are dropped, and so is a root part that vanished."""
    if len(form) == 4 and not any(form[2]):
        form = form[:2]
    ints = form[0]
    n = len(ints)
    if len(form) == 2:
        while n and not ints[n - 1]:
            n -= 1
        if n < len(ints):
            form = ints[:n], form[1]
    else:
        roots = form[2]
        while n and not (ints[n - 1] or roots[n - 1]):
            n -= 1
        if n < len(ints):
            form = ints[:n], form[1], roots[:n], form[3]
    p = object.__new__(Polynomial)
    p._coeffs = None
    p._ints = form
    return p


def _rational_divmod(fa, fb):
    """Integer forms of the exact Q quotient and remainder of two integer
    forms, deg a >= deg b; the remainder may have zero top entries.

    Pseudo-division with the multiplier reduced at each step: the loop keeps
    s*A = quot*B + rem, and multiplies by lb/gcd(c, lb) only what the next
    leading coefficient c needs (nothing at all when lb divides c).
    """
    (a, da), (b, db) = fa, fb
    n = len(b) - 1
    lb = b[-1]
    rem = list(a)
    quot = [0] * (len(a) - n)
    s = 1
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + n]
        if not c:
            continue
        g = math.gcd(c, lb)
        m, t = lb // g, c // g
        if m != 1:
            s *= m
            rem = [m * x for x in rem[:k + n]]
            quot = [m * x for x in quot]
        for j in range(n):
            rem[k + j] -= t * b[j]
        quot[k] = t
    den = s * da
    return ([x * db for x in quot], den), (rem[:n], den)


def _norm_ints(coeffs) -> list | None:
    """Ascending integer multiple of the norm of a polynomial down to Q[x].

    For coefficients A + B*sqrt(d) the norm to Q(i)[x] is A^2 - d*B^2, taken
    over a common denominator; for C + i*E, the norm to Q[x] is C^2 + E^2.
    None when the coefficients mix two extensions.
    """
    ds = {c.d for c in coeffs if c.d is not None}
    if len(ds) > 1:
        return None
    cols = list(zip(*((c.ar, c.ai, c.br, c.bi) for c in coeffs)))
    den = math.lcm(*(q.denominator for col in cols for q in col))
    ar, ai, br, bi = ([q.numerator * (den // q.denominator) for q in col]
                      for col in cols)
    if ds:
        ((dr, di),) = ds
        m = math.lcm(dr.denominator, di.denominator)
        dr, di = dr.numerator * (m // dr.denominator), \
            di.numerator * (m // di.denominator)
        brr, bii, bri = _convolve(br, br), _convolve(bi, bi), _convolve(br, bi)
        arr, aii, ari = _convolve(ar, ar), _convolve(ai, ai), _convolve(ar, ai)
        # m*den^2 * (A^2 - d*B^2), split into real and imaginary parts
        re = [m * (w - x) - dr * (y - z) + 2 * di * v
              for w, x, y, z, v in zip(arr, aii, brr, bii, bri)]
        im = [2 * (m * u - dr * v) - di * (y - z)
              for u, v, y, z in zip(ari, bri, brr, bii)]
    else:
        re, im = ar, ai
    if any(im):
        re = [x + y for x, y in zip(_convolve(re, re), _convolve(im, im))]
    while re and not re[-1]:
        re.pop()
    return re


def _primitive(cs: list) -> list:
    """cs divided by its content, with a positive leading coefficient."""
    g = math.gcd(*cs)
    if cs[0] < 0:
        g = -g
    return cs if g == 1 else [c // g for c in cs]


def _pseudo_remainder(a: list, b: list) -> list:
    """lc(b)^(deg a - deg b + 1) * a mod b, leading zeros stripped."""
    lb, n = b[0], len(b)
    while len(a) >= n:
        c = a[0]
        a = ([lb * x - c * y for x, y in zip(a[1:n], b[1:])]
             + [lb * x for x in a[n:]])
    k = 0
    while k < len(a) and not a[k]:
        k += 1
    return a[k:]


def _prs_gcd(a: list, b: list) -> list | None:
    """Primitive gcd (descending) of two nonconstant ascending integer
    polynomials, or None when they are coprime (primitive PRS)."""
    # when deg a < deg b the first remainder is a itself, which swaps them
    a, b = _primitive(a[::-1]), _primitive(b[::-1])
    while True:
        r = _pseudo_remainder(a, b)
        if not r:
            return b
        if len(r) == 1:
            return None
        a, b = b, _primitive(r)


def _rational_gcd(a: list, b: list) -> Polynomial:
    """Monic gcd of two nonconstant ascending integer polynomials."""
    g = _prs_gcd(a, b)
    if g is None:
        return P_ONE
    g.reverse()
    return _from_form((g, g[-1]))


class LaurentPolynomial:
    """Finite sum of c_k * x^k with integer k of either sign (no zero terms).

    Used for exponents of exponentials (x, x^3/3 - sigma*x, nu/x, ...): the
    derivative of such an exponent is again Laurent, so the closed-form
    function algebra stays closed under differentiation.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        tidy = {}
        for k, v in (terms or {}).items():
            v = _coerce_fe(v)
            if not v.is_zero:
                tidy[int(k)] = v
        self.terms = tidy

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls({})

    @classmethod
    def monomial(cls, k: int, c=ONE) -> "LaurentPolynomial":
        return cls({k: c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> FieldElement:
        return self.terms.get(0, ZERO)

    def min_exponent(self) -> int:
        return min(self.terms) if self.terms else 0

    def max_exponent(self) -> int:
        return max(self.terms) if self.terms else 0

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, ZERO) + v
        return LaurentPolynomial(out)

    def __neg__(self):
        return LaurentPolynomial({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "LaurentPolynomial":
        c = _coerce_fe(c)
        return LaurentPolynomial({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out: dict[int, FieldElement] = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                k = i + j
                out[k] = out.get(k, ZERO) + a * b
        return LaurentPolynomial(out)

    def derivative(self) -> "LaurentPolynomial":
        return LaurentPolynomial({k - 1: k * v for k, v in self.terms.items()
                                  if k != 0})

    def eval_complex(self, x: complex) -> complex:
        return sum((v.to_complex() * x ** k for k, v in self.terms.items()), 0j)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = str(self.terms[k])
            if k == 0:
                parts.append(c)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                parts.append(xs if c == "1" else f"({c})*{xs}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Laurent[{self}]"
