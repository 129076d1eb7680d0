"""Exact scalars: Gaussian rationals with an optional quadratic extension.

A FieldElement is a number

    (a_re + a_im*i)  +  (b_re + b_im*i) * sqrt(d)

where all four components are arbitrary-precision rationals and d is itself a
Gaussian rational that is not a perfect square in Q(i).  Elements with b = 0
live in the base field Q(i) and carry no d at all. Arithmetic is exact and
equality is decidable: two elements are equal iff their normalized components
are equal.

Only one quadratic extension is ever active in a computation: binary
operations insist that both operands share the same d (or that one of them is
a base-field element).  That is enough for everything downstream, because each
algebraic root (discriminant roots of a quadratic, indicial exponents, ...)
is introduced and consumed within a single verification context.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

# mpq does the same job as fractions.Fraction but is several times faster;
# whole-catalog exact-commutation sweeps do millions of small rational ops.
try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    Q = Fraction

_Q0 = Q(0)
_Q1 = Q(1)
_Q2 = Q(2)


class ExtensionMismatchError(ArithmeticError):
    """Two operands carry different quadratic extensions."""


def _isqrt_exact(n: int) -> int | None:
    if n < 0:
        return None
    r = __import__("math").isqrt(n)
    return r if r * r == n else None


def rational_sqrt(q) -> "Q | None":
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num = _isqrt_exact(int(q.numerator))
    den = _isqrt_exact(int(q.denominator))
    if num is None or den is None:
        return None
    return Q(num, den)


def _complex_sqrt_exact(x, y):
    """Exact square root of x + i*y in Q(i), or None if it is not a square.

    For y != 0 the square root u + i*v satisfies u^2 = (x + r)/2 with
    r = |x + i*y|, v = y / (2u); both u and r must be rational.
    """
    if y == 0:
        if x == 0:
            return (_Q0, _Q0)
        if x > 0:
            s = rational_sqrt(x)
            return None if s is None else (s, _Q0)
        s = rational_sqrt(-x)
        return None if s is None else (_Q0, s)
    r = rational_sqrt(x * x + y * y)
    if r is None:
        return None
    u = rational_sqrt((x + r) / 2)
    if u is None or u == 0:
        return None
    v = y / (2 * u)
    if u * u - v * v != x or 2 * u * v != y:  # pragma: no cover - guard
        return None
    return (u, v)


def _rational(q) -> "FieldElement":
    """The base-field element q + 0i, built without the _mk checks."""
    el = object.__new__(FieldElement)
    el.ar = q
    el.ai = el.br = el.bi = _Q0
    el.d = None
    return el


class FieldElement:
    """Immutable exact scalar; see module docstring for the representation."""

    __slots__ = ("ar", "ai", "br", "bi", "d")

    def __init__(self, re=0, im=0):
        self.ar = Q(re)
        self.ai = Q(im)
        self.br = _Q0
        self.bi = _Q0
        self.d = None

    # -- raw constructor used by arithmetic (no squareness re-check) --------
    @classmethod
    def _mk(cls, ar, ai, br, bi, d):
        el = object.__new__(cls)
        el.ar = ar
        el.ai = ai
        if br == 0 and bi == 0:
            el.br = _Q0
            el.bi = _Q0
            el.d = None
        else:
            el.br = br
            el.bi = bi
            el.d = d
        return el

    @classmethod
    def make(cls, ar, ai=0, br=0, bi=0, d=None):
        """Normalizing constructor for user/JSON input.

        Folds d = 0 and perfect-square d into the base field so that the
        stored d is never a square of a base-field element.
        """
        ar, ai, br, bi = Q(ar), Q(ai), Q(br), Q(bi)
        if br == 0 and bi == 0:
            return cls._mk(ar, ai, _Q0, _Q0, None)
        if d is None:
            raise ValueError("extension coefficient without a discriminant")
        dr, di = Q(d[0]), Q(d[1])
        if dr == 0 and di == 0:
            return cls._mk(ar, ai, _Q0, _Q0, None)
        root = _complex_sqrt_exact(dr, di)
        if root is not None:
            sr, si = root
            return cls._mk(ar + br * sr - bi * si, ai + br * si + bi * sr,
                           _Q0, _Q0, None)
        return cls._mk(ar, ai, br, bi, (dr, di))

    @classmethod
    def from_rational(cls, num, den=1):
        return _rational(Q(num, den))

    # -- predicates ----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.d is None and self.ar == 0 and self.ai == 0

    @property
    def is_one(self) -> bool:
        return self.d is None and self.ar == 1 and self.ai == 0

    @property
    def is_rational(self) -> bool:
        return self.d is None and self.ai == 0

    @property
    def is_gaussian(self) -> bool:
        return self.d is None

    def is_integer(self) -> bool:
        return self.is_rational and self.ar.denominator == 1

    def as_rational(self):
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.ar

    def as_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return int(self.ar)

    # -- coercion ------------------------------------------------------------
    @classmethod
    def _coerce(cls, value):
        if type(value) is cls:
            return value
        if isinstance(value, int) or type(value) is type(_Q0) or isinstance(value, Fraction):
            return cls._mk(Q(value), _Q0, _Q0, _Q0, None)
        return None

    def _join_d(self, other: "FieldElement"):
        if self.d is None:
            return other.d
        if other.d is None or other.d == self.d:
            return self.d
        raise ExtensionMismatchError(
            f"cannot combine sqrt({self.d[0]}+{self.d[1]}i) with "
            f"sqrt({other.d[0]}+{other.d[1]}i)")

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        other = FieldElement._coerce(other)
        if other is None:
            return NotImplemented
        if (self.d is None and other.d is None
                and not self.ai and not other.ai):
            return _rational(self.ar + other.ar)
        d = self._join_d(other)
        return FieldElement._mk(self.ar + other.ar, self.ai + other.ai,
                                self.br + other.br, self.bi + other.bi, d)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement._mk(-self.ar, -self.ai, -self.br, -self.bi, self.d)

    def __sub__(self, other):
        other = FieldElement._coerce(other)
        if other is None:
            return NotImplemented
        if (self.d is None and other.d is None
                and not self.ai and not other.ai):
            return _rational(self.ar - other.ar)
        d = self._join_d(other)
        return FieldElement._mk(self.ar - other.ar, self.ai - other.ai,
                                self.br - other.br, self.bi - other.bi, d)

    def __rsub__(self, other):
        other = FieldElement._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = FieldElement._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, e = self.ar, self.ai, other.ar, other.ai
        if self.d is None and other.d is None and not b and not e:
            # rational * rational: one Q product instead of four
            return _rational(a * c)
        d = self._join_d(other)
        if d is None:
            # plain Gaussian product
            return FieldElement._mk(a * c - b * e, a * e + b * c, _Q0, _Q0, None)
        p, q_, r, s = self.br, self.bi, other.br, other.bi
        dr, di = d
        # (A + B sqrt(d))(C + E sqrt(d)) = AC + BE d + (AE + BC) sqrt(d)
        ac_re = a * c - b * e
        ac_im = a * e + b * c
        be_re = p * r - q_ * s
        be_im = p * s + q_ * r
        bed_re = be_re * dr - be_im * di
        bed_im = be_re * di + be_im * dr
        ae_re = a * r - b * s
        ae_im = a * s + b * r
        bc_re = p * c - q_ * e
        bc_im = p * e + q_ * c
        return FieldElement._mk(ac_re + bed_re, ac_im + bed_im,
                                ae_re + bc_re, ae_im + bc_im, d)

    __rmul__ = __mul__

    def conjugate_ext(self):
        """a - b*sqrt(d); the extension conjugate (identity on base elements)."""
        return FieldElement._mk(self.ar, self.ai, -self.br, -self.bi, self.d)

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        if self.d is None:
            n = self.ar * self.ar + self.ai * self.ai
            return FieldElement._mk(self.ar / n, -self.ai / n, _Q0, _Q0, None)
        # 1/(A + B sqrt(d)) = (A - B sqrt(d)) / (A^2 - B^2 d); the norm is a
        # nonzero base-field element because d is not a square.
        conj = self.conjugate_ext()
        norm = self * conj
        if norm.d is not None:
            raise ArithmeticError(f"norm of {self} is not in the base field")
        ninv = norm.inverse()
        return conj * ninv

    def __truediv__(self, other):
        other = FieldElement._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = FieldElement._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def sqrt(self) -> "FieldElement":
        """Exact square root, extending the field when necessary.

        Only base-field elements can be rooted; a nested extension would need
        a second sqrt level, which no verification context requires.
        """
        if self.d is not None:
            raise ExtensionMismatchError("sqrt of an extension element")
        root = _complex_sqrt_exact(self.ar, self.ai)
        if root is not None:
            return FieldElement._mk(root[0], root[1], _Q0, _Q0, None)
        return FieldElement._mk(_Q0, _Q0, _Q1, _Q0, (self.ar, self.ai))

    # -- comparisons / hashing ----------------------------------------------
    def __eq__(self, other):
        other = FieldElement._coerce(other)
        if other is None:
            return NotImplemented
        return (self.ar == other.ar and self.ai == other.ai
                and self.br == other.br and self.bi == other.bi
                and self.d == other.d)

    def __hash__(self):
        return hash((self.ar, self.ai, self.br, self.bi, self.d))

    # -- numeric embeddings (principal branch for sqrt(d)) -------------------
    def to_complex(self) -> complex:
        z = complex(self.ar) + 1j * complex(self.ai)
        if self.d is not None:
            root = cmath.sqrt(complex(self.d[0]) + 1j * complex(self.d[1]))
            z += (complex(self.br) + 1j * complex(self.bi)) * root
        return z

    def to_mpc(self, mp):
        """High-precision embedding using an mpmath context."""
        z = mp.mpc(mp.mpf(int(self.ar.numerator)) / mp.mpf(int(self.ar.denominator)),
                   mp.mpf(int(self.ai.numerator)) / mp.mpf(int(self.ai.denominator)))
        if self.d is not None:
            droot = mp.sqrt(mp.mpc(
                mp.mpf(int(self.d[0].numerator)) / mp.mpf(int(self.d[0].denominator)),
                mp.mpf(int(self.d[1].numerator)) / mp.mpf(int(self.d[1].denominator))))
            b = mp.mpc(mp.mpf(int(self.br.numerator)) / mp.mpf(int(self.br.denominator)),
                       mp.mpf(int(self.bi.numerator)) / mp.mpf(int(self.bi.denominator)))
            z += b * droot
        return z

    # -- printing ------------------------------------------------------------
    def __str__(self):
        def gauss(re, im):
            if im == 0:
                return str(re)
            if re == 0:
                return f"{im}i"
            sign = "+" if im > 0 else "-"
            return f"{re}{sign}{abs(im)}i"

        base = gauss(self.ar, self.ai)
        if self.d is None:
            return base
        ext = gauss(self.br, self.bi)
        droot = f"sqrt({gauss(self.d[0], self.d[1])})"
        if base == "0":
            return f"({ext})*{droot}"
        return f"{base}+({ext})*{droot}"

    def __repr__(self):
        return f"FieldElement({self})"


ZERO = FieldElement(0)
ONE = FieldElement(1)
I = FieldElement(0, 1)
MINUS_ONE = FieldElement(-1)


def fe(num, den=1) -> FieldElement:
    """Shorthand rational constructor."""
    return FieldElement.from_rational(num, den)


def quadratic_roots(a: FieldElement, b: FieldElement, c: FieldElement):
    """Both roots of a*t^2 + b*t + c = 0 (a != 0), in a shared extension.

    Returns (root_plus, root_minus) for the +/- branch of the discriminant
    square root; when the discriminant is a perfect square both roots are
    base-field elements.
    """
    if a.is_zero:
        raise ZeroDivisionError("leading coefficient is zero")
    disc = b * b - 4 * a * c
    root = disc.sqrt()
    two_a = 2 * a
    return ((-b + root) / two_a, (-b - root) / two_a)
