import random
import re
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from heunops import poly
from heunops.field import ZERO, ExtensionMismatchError, FieldElement, fe
from heunops.poly import LaurentPolynomial, P_ONE, Polynomial, poly_x_minus


def rand_poly(rng, deg):
    return Polynomial([fe(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(deg + 1)])


def test_normalization_strips_trailing_zeros():
    p = Polynomial([fe(1), fe(0), fe(0)])
    assert p.degree == 0
    assert Polynomial([]).is_zero
    assert Polynomial([fe(0)]).is_zero


def test_divmod_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        a = rand_poly(rng, rng.randint(0, 6))
        b = rand_poly(rng, rng.randint(0, 4))
        if b.is_zero:
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_gcd_common_factor():
    common = poly_x_minus(fe(1, 2)) * poly_x_minus(fe(-2))
    a = common * poly_x_minus(fe(3))
    b = common * poly_x_minus(fe(5))
    assert a.gcd(b) == common.monic()


def euclid_gcd(a, b):
    """Reference: monic Euclid over the coefficient field."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _assert_integer_form(p):
    """The cached integer form, when present, reads back as p: (ints, den)
    over Q, or (ints, den, roots, d) over a real Q(sqrt d)."""
    form = p._ints
    if form:
        ints, den, *ext = form
        roots, d = ext or ([0] * len(ints), None)
        assert len(ints) == len(roots) == len(p.coeffs)
        assert [FieldElement.make(fe(x, den).ar, 0, fe(y, den).ar, 0, d)
                for x, y in zip(ints, roots)] == list(p.coeffs)


_X = sp.Symbol("x")
_SQRT2 = (2, 0)


def _sp_rational(q):
    return sp.Rational(int(q.numerator), int(q.denominator))


def _sp_scalar(c):
    z = _sp_rational(c.ar) + sp.I * _sp_rational(c.ai)
    if c.d is not None:
        root = sp.sqrt(_sp_rational(c.d[0]) + sp.I * _sp_rational(c.d[1]))
        z += (_sp_rational(c.br) + sp.I * _sp_rational(c.bi)) * root
    return z


def to_sympy(p, domain):
    return sp.Poly([_sp_scalar(c) for c in reversed(p.coeffs)] or [0], _X,
                   domain=domain)


def sympy_gcd(a, b, domain):
    """Oracle: sympy's gcd over the given domain, made monic."""
    g = sp.gcd(to_sympy(a, domain), to_sympy(b, domain))
    return g if g.is_zero else g.monic()


_ints = st.integers(-9, 9)
_dens = st.integers(1, 6)


@st.composite
def rationals(draw):
    return fe(draw(_ints), draw(_dens))


@st.composite
def gaussians(draw):
    return FieldElement.make(fe(draw(_ints), draw(_dens)).ar,
                             fe(draw(_ints), draw(_dens)).ar)


@st.composite
def sqrt2_elements(draw):
    return FieldElement.make(fe(draw(_ints), draw(_dens)).ar, 0,
                             fe(draw(_ints), draw(_dens)).ar, 0, _SQRT2)


@st.composite
def gcd_pairs(draw, scalars, max_degree=4):
    """Two polynomials, half of the time with a planted common factor."""
    def poly(min_len, max_len):
        return Polynomial(draw(st.lists(scalars(), min_size=min_len,
                                        max_size=max_len)))

    a, b = poly(1, max_degree + 1), poly(1, max_degree + 1)
    if draw(st.booleans()):
        common = poly(2, 4)
        a, b = a * common, b * common
    return a, b


_ORACLE_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@_ORACLE_SETTINGS
@given(pair=gcd_pairs(rationals))
def test_gcd_rational_matches_oracles(backend, pair):
    a, b = pair
    g = a.gcd(b)
    assert g == euclid_gcd(a, b)
    assert to_sympy(g, sp.QQ) == sympy_gcd(a, b, sp.QQ)
    assert g == b.gcd(a)
    _assert_integer_form(g)
    if not g.is_zero:
        assert (a // g) * g == a


@_ORACLE_SETTINGS
@given(pair=gcd_pairs(gaussians, max_degree=3))
def test_gcd_gaussian_matches_oracles(backend, pair):
    a, b = pair
    g = a.gcd(b)
    assert g == euclid_gcd(a, b)
    assert to_sympy(g, sp.QQ_I) == sympy_gcd(a, b, sp.QQ_I)


@settings(_ORACLE_SETTINGS, max_examples=40)
@given(pair=gcd_pairs(sqrt2_elements, max_degree=2))
def test_gcd_extension_matches_oracles(backend, pair):
    a, b = pair
    domain = sp.QQ.algebraic_field(sp.sqrt(2))
    g = a.gcd(b)
    assert g == euclid_gcd(a, b)
    assert to_sympy(g, domain) == sympy_gcd(a, b, domain)


def test_gcd_zero_and_constant_operands(backend):
    p = Polynomial([fe(3), fe(-2, 3), fe(4)])
    zero = Polynomial()
    assert zero.gcd(zero) == zero
    assert p.gcd(zero) == zero.gcd(p) == p.monic() == euclid_gcd(p, zero)
    for c in (fe(5, 7), FieldElement(1, 2)):
        const = Polynomial.constant(c)
        assert p.gcd(const) == const.gcd(p) == P_ONE
        assert const.gcd(zero) == P_ONE
    assert Polynomial([fe(0), fe(2)]).gcd(Polynomial([fe(0), fe(0), fe(3)])) \
        == Polynomial.monomial(1)


# -- the norm certificate for Gaussian and extension gcds ---------------------

_D_NONREAL = (1, 2)


@st.composite
def nonreal_ext_elements(draw):
    """Elements of Q(i, sqrt(1 + 2i)); 1 + 2i is not a square in Q(i)."""
    return FieldElement.make(*(fe(draw(_ints), draw(_dens)).ar
                               for _ in range(4)), d=_D_NONREAL)


def _norm_falls_through(a, b):
    """True when the norms of a and b share a factor over Q."""
    na = poly._norm_ints(a.coeffs)
    nb = poly._norm_ints(b.coeffs)
    return poly._prs_gcd(na, nb) is not None


@st.composite
def traffic_pairs(draw, scalars):
    """A numerator over an extension against a rational denominator with
    roots in {0, 1, a}, half of the time sharing one of those roots."""
    a = fe(draw(st.integers(2, 9)), draw(st.integers(1, 5)))
    if a.is_one:
        a = fe(3)
    roots = [fe(0), fe(1), a]
    den = Polynomial([fe(1)])
    for root in roots:
        den = den * poly_x_minus(root) ** draw(st.integers(0, 2))
    if den.degree < 1:
        den = den * poly_x_minus(roots[draw(st.integers(0, 2))])
    num = Polynomial(draw(st.lists(scalars(), min_size=2, max_size=4)))
    if draw(st.booleans()):
        num = num * poly_x_minus(roots[draw(st.integers(0, 2))])
    return num, den


@_ORACLE_SETTINGS
@given(pair=traffic_pairs(sqrt2_elements))
def test_gcd_certificate_on_sqrt2_traffic(backend, pair):
    num, den = pair
    domain = sp.QQ.algebraic_field(sp.sqrt(2))
    g = num.gcd(den)
    assert g == den.gcd(num) == euclid_gcd(num, den)
    assert to_sympy(g, domain) == sympy_gcd(num, den, domain)


@_ORACLE_SETTINGS
@given(pair=traffic_pairs(gaussians))
def test_gcd_certificate_on_gaussian_traffic(backend, pair):
    num, den = pair
    g = num.gcd(den)
    assert g == den.gcd(num) == euclid_gcd(num, den)
    assert to_sympy(g, sp.QQ_I) == sympy_gcd(num, den, sp.QQ_I)


def test_gcd_certificate_falls_through_on_conjugates(backend):
    sqrt2 = FieldElement.make(0, 0, 1, 0, _SQRT2)
    a, b = poly_x_minus(sqrt2), poly_x_minus(-sqrt2)
    # both norms are x^2 - 2, so the certificate cannot decide
    assert _norm_falls_through(a, b)
    assert a.gcd(b) == b.gcd(a) == euclid_gcd(a, b) == P_ONE
    shared = poly_x_minus(fe(1, 3))
    assert (a * shared).gcd(b * shared) == shared
    i = FieldElement(0, 1)
    c, e = poly_x_minus(i), poly_x_minus(-i)
    assert _norm_falls_through(c, e)
    assert c.gcd(e) == euclid_gcd(c, e) == P_ONE
    assert (c * e).gcd(c) == c


@settings(_ORACLE_SETTINGS, max_examples=40)
@given(pair=gcd_pairs(nonreal_ext_elements, max_degree=2))
def test_gcd_certificate_nonreal_discriminant(backend, pair):
    a, b = pair
    assert a.gcd(b) == b.gcd(a) == euclid_gcd(a, b)
    for p in (a, b):
        if p.degree > 0:
            # the integer norm lies in Q[x] and is a multiple of p and of
            # its extension conjugate
            norm = Polynomial([fe(c) for c in poly._norm_ints(p.coeffs)])
            conj = Polynomial([c.conjugate_ext() for c in p.coeffs])
            assert norm.degree >= p.degree
            assert (norm % p).is_zero and (norm % conj).is_zero


def test_gcd_certificate_mixed_extensions_fall_back(backend):
    sqrt2 = FieldElement.make(0, 0, 1, 0, _SQRT2)
    sqrt3 = FieldElement.make(0, 0, 1, 0, (3, 0))
    mixed = Polynomial([sqrt2, sqrt3, fe(1)])
    assert poly._norm_ints(mixed.coeffs) is None
    assert mixed.gcd(Polynomial([fe(0), fe(1)])) == P_ONE


# -- integer multiply and divide ------------------------------------------------


def schoolbook_mul(a, b):
    """Reference: the product by FieldElement convolution."""
    cs = [ZERO] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            cs[i + j] = cs[i + j] + x * y
    return Polynomial(cs)


def schoolbook_divmod(a, b):
    """Reference: long division over FieldElement by the leading inverse."""
    n = b.degree
    rem = list(a.coeffs)
    quot = [ZERO] * max(len(rem) - n, 0)
    inv = b.leading.inverse()
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + n] * inv
        quot[k] = c
        for j, y in enumerate(b.coeffs):
            rem[k + j] = rem[k + j] - c * y
    return Polynomial(quot), Polynomial(rem[:n])


@st.composite
def mul_div_operands(draw, kind):
    """Operand pairs: both rational, or one of them over Q(sqrt 2) or Q(i)."""
    def poly_of(scalars, max_len):
        return Polynomial(draw(st.lists(scalars(), min_size=0,
                                        max_size=max_len)))

    if kind == "rational":
        return poly_of(rationals, 7), poly_of(rationals, 4)
    other = draw(st.sampled_from([sqrt2_elements, gaussians]))
    a, b = poly_of(rationals, 6), poly_of(other, 3)
    return (a, b) if draw(st.booleans()) else (b, a)


@pytest.mark.parametrize("kind", ["rational", "mixed"])
@_ORACLE_SETTINGS
@given(data=st.data())
def test_integer_mul_and_divmod_match_schoolbook(backend, kind, data):
    a, b = data.draw(mul_div_operands(kind))
    product = a * b
    assert product == schoolbook_mul(a, b) == b * a
    _assert_integer_form(product)
    if kind == "rational":
        assert bool(product._ints) == (not product.is_zero)
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.divmod(b)
        return
    quot, rem = a.divmod(b)
    assert (quot, rem) == schoolbook_divmod(a, b)
    assert rem.is_zero or rem.degree < b.degree
    # the cached integer form of a product feeds the next operation
    assert product.divmod(b) == (a, Polynomial())
    assert (product * b).divmod(b * b) == (a, Polynomial())
    assert (product + rem).divmod(b) == schoolbook_divmod(product + rem, b)


# -- the integer kernel for products over a real Q(sqrt d) ---------------------

# rational non-squares, stored as FieldElement stores a radicand; the
# negative ones are not squares in Q(i) either
_REAL_RADICANDS = [(2, 0), (3, 0), (fe(5, 7).ar, 0), (fe(20, 9).ar, 0),
                   (fe(1, 2).ar, 0), (-3, 0), (fe(-5, 2).ar, 0)]


def _ext(a, b, d):
    return FieldElement.make(a.ar, 0, b.ar, 0, d)


@st.composite
def real_ext_operands(draw):
    """Two polynomials over one Q(sqrt d): both in the extension, or one of
    them rational; some coefficients with b = 0."""
    d = draw(st.sampled_from(_REAL_RADICANDS))

    def element():
        b = draw(rationals()) if draw(st.integers(0, 3)) else fe(0)
        return _ext(draw(rationals()), b, d)

    def poly_of(scalar):
        return Polynomial([scalar() for _ in range(draw(st.integers(1, 5)))])

    a = poly_of(element)
    b = poly_of((lambda: draw(rationals())) if draw(st.booleans())
                else element)
    return (a, b, d) if draw(st.booleans()) else (b, a, d)


def _sympy_expr(p):
    return sum((_sp_scalar(c) * _X ** k for k, c in enumerate(p.coeffs)),
               sp.Integer(0))


@_ORACLE_SETTINGS
@given(ops=real_ext_operands())
def test_real_extension_mul_matches_schoolbook_and_sympy(backend, ops):
    a, b, d = ops
    product = a * b
    assert product == schoolbook_mul(a, b) == b * a
    assert sp.expand(_sympy_expr(product) - _sympy_expr(a) * _sympy_expr(b)) == 0
    _assert_integer_form(product)
    assert product.is_zero or product._ints, "the kernel caches its form"
    # products fed back through the cached forms
    c = Polynomial([_ext(fe(1, 3), fe(-2), d), fe(5, 4)])
    assert (product * c) * product == schoolbook_mul(
        schoolbook_mul(schoolbook_mul(a, b), c), schoolbook_mul(a, b))


@settings(_ORACLE_SETTINGS, max_examples=60)
@given(ops=real_ext_operands())
def test_real_extension_mul_cancelling_the_root(backend, ops):
    a, _, d = ops
    assume(not a.is_zero)
    conj = Polynomial([c.conjugate_ext() for c in a.coeffs])
    norm = a * conj
    assert norm == schoolbook_mul(a, conj)
    # (A + B sqrt d)(A - B sqrt d) = A^2 - d B^2 lies in Q[x]: its cached
    # form is the rational one, which divmod and gcd then use
    assert all(c.is_rational for c in norm.coeffs)
    assert len(norm._ints) == 2
    _assert_integer_form(norm)
    assert norm.divmod(Polynomial([fe(1), fe(1)])) == schoolbook_divmod(
        norm, Polynomial([fe(1), fe(1)]))


def test_real_extension_mul_falls_back_outside_the_kernel(backend):
    d, e = (2, 0), (3, 0)
    real = Polynomial([_ext(fe(1), fe(2), d), _ext(fe(-1, 2), fe(3), d)])
    gaussian_part = Polynomial([FieldElement.make(1, 1, 2, 0, d), fe(3)])
    nonreal = Polynomial([FieldElement.make(1, 0, 2, 0, _D_NONREAL), fe(1)])
    mixed = Polynomial([_ext(fe(1), fe(1), d), _ext(fe(1), fe(1), e)])
    for p in (gaussian_part, nonreal, mixed):
        assert p._form() is False
    for x, y in ((gaussian_part, real), (gaussian_part, gaussian_part),
                 (nonreal, nonreal), (nonreal, Polynomial([fe(2), fe(1, 3)])),
                 (mixed, Polynomial([fe(2, 3)]))):
        product = x * y
        assert product == schoolbook_mul(x, y) == y * x
        assert product._ints is None
    other = Polynomial([_ext(fe(1), fe(1), e), fe(2)])
    assert real._form() and other._form()
    for x, y in ((real, other), (real, mixed)):
        with pytest.raises(ExtensionMismatchError):
            x * y


def test_integer_divmod_non_monic_divisors(backend):
    b = Polynomial([fe(-1, 3), fe(5, 2), fe(-6, 7)])
    for a in (Polynomial([fe(k, k + 2) for k in range(1, 8)]),
              Polynomial([fe(0), fe(0), fe(0), fe(0), fe(9, 4)]),
              b * Polynomial([fe(2), fe(-3, 5)]) + Polynomial([fe(1, 11)])):
        assert a.divmod(b) == schoolbook_divmod(a, b)
    quot, rem = (b * b + Polynomial([fe(1, 11)])).divmod(b)
    assert quot == b and rem == Polynomial([fe(1, 11)])


# -- integer forms as the stored value ------------------------------------------


@st.composite
def integer_forms(draw, d):
    """An integer form as a kernel may return it: not reduced (den shares a
    factor k with every entry, k possibly negative), possibly with zero top
    entries, and over Q(sqrt d) possibly with a root part that cancels."""
    k = draw(st.sampled_from([1, 2, 6, -3]))
    n = draw(st.integers(0, 5))
    ints = [k * draw(_ints) for _ in range(n)] + [0] * draw(st.integers(0, 2))
    den = k * draw(_dens)
    if d is None:
        return ints, den
    roots = ([0] * len(ints) if draw(st.integers(0, 3)) == 0
             else [k * draw(_ints) for _ in ints])
    return ints, den, roots, d


def _rescaled(form, k):
    """The same polynomial over den * k."""
    ints, den, *ext = form
    if ext:
        ext = [[k * y for y in ext[0]], ext[1]]
    return ([k * x for x in ints], den * k, *ext)


def _form_coeffs(form):
    """The coefficients a form stands for, built one at a time."""
    ints, den, *ext = form
    roots, d = ext or ([0] * len(ints), None)
    return [FieldElement.make(fe(x, den).ar, 0, fe(y, den).ar, 0, d)
            for x, y in zip(ints, roots)]


def _horner(cs, x):
    acc = ZERO
    for c in reversed(cs):
        acc = acc * x + c
    return acc


@settings(_ORACLE_SETTINGS, max_examples=250)
@given(data=st.data())
def test_integer_forms_agree_with_coefficients(backend, data):
    d = data.draw(st.sampled_from([None, _SQRT2, (fe(5, 7).ar, 0), (-3, 0)]))
    if d is not None:
        d = FieldElement.make(0, 0, 1, 0, d).d
    fa = data.draw(integer_forms(d))
    fb = (_rescaled(fa, data.draw(st.sampled_from([2, -5])))
          if data.draw(st.integers(0, 3)) == 0 else data.draw(integer_forms(d)))
    # a, b hold coefficients only; form(...) holds only the integer form,
    # fresh for each use, so that no check reads a coefficient tuple that an
    # earlier check built
    a, b = Polynomial(_form_coeffs(fa)), Polynomial(_form_coeffs(fb))

    def form(f):
        p = poly._from_form(f)
        assert p._coeffs is None
        return p

    def same(got, want):
        assert got.coeffs == want.coeffs
        _assert_integer_form(got)

    # structure
    assert form(fa).degree == a.degree
    assert form(fa).is_zero == a.is_zero
    assert form(fa).is_constant() == a.is_constant()
    if not a.is_zero:
        assert form(fa).leading == a.coeffs[-1]
    for k in range(-1, len(fa[0]) + 2):
        assert form(fa).coeff(k) == a.coeff(k)
    same(form(fa), a)
    # equality and hashing, across the two representations
    equal = a.coeffs == b.coeffs
    for x, y in ((form(fa), form(fb)), (form(fa), b), (a, form(fb))):
        assert (x == y) == (y == x) == equal
        if equal:
            assert hash(x) == hash(y)
    assert form(fa) == a and hash(form(fa)) == hash(a)
    # arithmetic: the form-only operands, the coefficient operands and the
    # coefficient loop agree
    pad = max(len(a.coeffs), len(b.coeffs))
    ca = list(a.coeffs) + [ZERO] * (pad - len(a.coeffs))
    cb = list(b.coeffs) + [ZERO] * (pad - len(b.coeffs))
    c = data.draw(rationals())
    x0 = data.draw(st.one_of(rationals(), gaussians()))
    for got, ref, want in (
            (form(fa) + form(fb), a + b,
             Polynomial([x + y for x, y in zip(ca, cb)])),
            (form(fa) - form(fb), a - b,
             Polynomial([x - y for x, y in zip(ca, cb)])),
            (-form(fa), -a, Polynomial([-x for x in a.coeffs])),
            (form(fa).scale(c), a.scale(c),
             Polynomial([x * c for x in a.coeffs])),
            (form(fa) * form(fb), a * b, schoolbook_mul(a, b)),
            (form(fa).derivative(), a.derivative(),
             Polynomial([k * x for k, x in enumerate(a.coeffs)][1:])),
            (form(fa).monic(), a.monic(),
             a if a.is_zero else Polynomial(
                 [x / a.coeffs[-1] for x in a.coeffs]))):
        same(got, want)
        same(ref, want)
    assert form(fa).eval(x0) == a.eval(x0) == _horner(a.coeffs, x0)
    if not b.is_zero:
        want = schoolbook_divmod(a, b)
        for got in (form(fa).divmod(form(fb)), a.divmod(b)):
            same(got[0], want[0])
            same(got[1], want[1])
    g = form(fa).gcd(form(fb))
    same(g, a.gcd(b))
    if d is None:
        assert to_sympy(g, sp.QQ) == sympy_gcd(a, b, sp.QQ)


# -- the sum-of-products kernel -------------------------------------------------

_DOT_SCALARS = {"rational": rationals, "gaussian": gaussians,
                "sqrt2": sqrt2_elements}


@st.composite
def dot_terms(draw, kind):
    """(c, a, b) triples for dot, with operands of different lengths, zero
    operands and zero c among them.  An operand may be negated (a negative
    form denominator) or a product (a kernel result holding only its form).
    The "mixed" terms are rational but for one operand over Q(i) or
    Q(sqrt 2)."""
    def operand(scalars):
        p = Polynomial(draw(st.lists(scalars(), max_size=5)))
        shape = draw(st.integers(0, 3))
        if shape == 1:
            p = -p
        elif shape == 2:
            p = p * Polynomial([draw(scalars()), draw(scalars())])
        return p

    scalars = _DOT_SCALARS.get(kind, rationals)
    terms = [(draw(st.integers(-4, 4)), operand(scalars), operand(scalars))
             for _ in range(draw(st.integers(0, 5)))]
    if kind == "mixed":
        other = operand(draw(st.sampled_from([gaussians, sqrt2_elements])))
        a = operand(rationals)
        term = (draw(st.integers(-4, 4)),
                *((a, other) if draw(st.booleans()) else (other, a)))
        terms.insert(draw(st.integers(0, len(terms))), term)
    return terms


def schoolbook_dot(terms):
    """sum c*a*b over the coefficient field, term by term."""
    out = []
    for c, a, b in terms:
        ab = schoolbook_mul(a, b).coeffs
        out += [ZERO] * (len(ab) - len(out))
        for k, x in enumerate(ab):
            out[k] = out[k] + x * fe(c)
    return Polynomial(out)


@pytest.mark.parametrize("kind", ["rational", "gaussian", "sqrt2", "mixed"])
@settings(_ORACLE_SETTINGS, max_examples=60)
@given(data=st.data())
def test_dot_matches_the_sum_of_products(backend, kind, data):
    terms = data.draw(dot_terms(kind))
    got = poly.dot(terms)
    if kind == "rational" and any(c and not (a.is_zero or b.is_zero)
                                  for c, a, b in terms):
        # the integer accumulation ran: the result holds only its form
        assert got._coeffs is None and len(got._ints) == 2
    assert got.coeffs == schoolbook_dot(terms).coeffs
    total = Polynomial()
    for c, a, b in terms:
        total = total + (a * b) * c
    assert got == total
    _assert_integer_form(got)


def test_dot_edge_cases(backend):
    a = Polynomial([fe(1, 2), fe(-3), fe(2, 5)])
    b = Polynomial([fe(4, 3)])
    long = Polynomial([fe(1), fe(0), fe(0), fe(0), fe(-1, 7)])
    assert poly.dot([]).is_zero
    assert poly.dot([(0, a, b), (2, a, Polynomial()),
                     (-1, Polynomial(), long)]).is_zero
    assert poly.dot([(1, a, b), (1, -a, b)]).is_zero
    assert poly.dot([(2, -a, b), (-1, a, -b)]) == -(a * b)
    got = poly.dot([(3, a, b), (1, long, a), (0, long, long)])
    assert got == schoolbook_dot([(3, a, b), (1, long, a)])
    assert got.degree == 6 and got._coeffs is None
    # a Gaussian operand anywhere in the list takes Polynomial arithmetic
    g = Polynomial([FieldElement.make(1, 2), fe(1)])
    assert poly.dot([(3, a, b), (1, g, a)]) == schoolbook_dot(
        [(3, a, b), (1, g, a)])


def _loop_dot(terms):
    """dot as the fallback computes it: acc + a*b*c, term by term."""
    acc = Polynomial()
    for c, a, b in terms:
        acc = acc + a * b * c
    return acc


@st.composite
def extension_dot_terms(draw, d):
    """(c, a, b) triples whose operands are rational or over Q(sqrt d), with
    zero operands, zero c, negated operands and kernel products among them;
    sometimes one operand is over Q(sqrt 7) or Q(i) instead."""
    radicand = (fe(d).ar, fe(0).ar)

    def scalar(kind):
        r = fe(draw(_ints), draw(_dens))
        if kind == "ext":
            return r + FieldElement.make(0, 0, fe(draw(_ints), draw(_dens)).ar,
                                         0, radicand)
        if kind == "other":
            return r + FieldElement.make(0, 0, 1, 0, (7, 0))
        if kind == "gaussian":
            return r + FieldElement.make(0, fe(draw(_ints), draw(_dens)).ar)
        return r

    def operand(kind):
        p = Polynomial([scalar(draw(st.sampled_from([kind, "rational"])))
                        for _ in range(draw(st.integers(0, 4)))])
        shape = draw(st.integers(0, 3))
        if shape == 1:
            p = -p
        elif shape == 2:
            p = p * Polynomial([scalar(kind), scalar("rational")])
        return p

    terms = [(draw(st.integers(-4, 4)),
              operand(draw(st.sampled_from(["ext", "rational"]))),
              operand(draw(st.sampled_from(["ext", "rational"]))))
             for _ in range(draw(st.integers(0, 5)))]
    odd = draw(st.sampled_from([None, "other", "gaussian"]))
    if odd:
        terms.insert(draw(st.integers(0, len(terms))),
                     (draw(st.integers(-4, 4)), operand(odd),
                      operand(draw(st.sampled_from(["ext", "rational"])))))
    return terms


@pytest.mark.parametrize("d", [2, -3, Fraction(5, 4)], ids=str)
@settings(_ORACLE_SETTINGS, max_examples=80)
@given(data=st.data())
def test_dot_over_one_extension_matches_the_loop(backend, d, data):
    """dot over Q(sqrt d) on integer lists equals the acc + a*b*c loop; mixed
    radicands and Gaussian operands take that loop."""
    terms = data.draw(extension_dot_terms(d))
    try:
        want = _loop_dot(terms)
    except ExtensionMismatchError as err:
        with pytest.raises(ExtensionMismatchError, match=re.escape(str(err))):
            poly.dot(terms)
        return
    got = poly.dot(terms)
    assert got == want and got.coeffs == want.coeffs
    _assert_integer_form(got)


def test_dot_over_one_extension_edge_cases(backend):
    r2 = fe(2).sqrt()
    a = Polynomial([fe(1, 2), r2, fe(-3)])
    b = Polynomial([r2 * fe(1, 3), fe(2, 5)])
    c = Polynomial([fe(4, 3), fe(-1)])
    # the roots cancel: the result is rational and holds a rational form
    got = poly.dot([(1, a, b), (-1, a, b), (2, c, c)])
    assert got == c * c * 2 and len(got._ints) == 2
    # sqrt(2) * sqrt(2) lands on the integer list
    got = poly.dot([(3, Polynomial([r2]), Polynomial([r2, r2]))])
    assert got == Polynomial([fe(6), fe(6)]) and got._coeffs is None
    got = poly.dot([(2, a, b), (-1, c, a), (0, a, a)])
    assert got._coeffs is None and len(got._ints) == 4
    assert got == _loop_dot([(2, a, b), (-1, c, a)])


# -- valuation and series_quotient ------------------------------------------------


@pytest.mark.parametrize("kind", ["rational", "gaussian", "sqrt2"])
@settings(_ORACLE_SETTINGS, max_examples=60)
@given(data=st.data())
def test_series_quotient_matches_the_series_inverse(backend, kind, data):
    """The first n Taylor coefficients of a / rest, b = x^skip rest, equal
    a times the inverse series of rest, term by term over FieldElement;
    valuation(b) is skip."""
    scalars = _DOT_SCALARS[kind]
    a = Polynomial(data.draw(st.lists(scalars(), max_size=5)))
    rest = Polynomial(data.draw(st.lists(scalars(), min_size=1, max_size=4)))
    assume(not rest.coeff(0).is_zero)
    skip, n = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 6))
    b = Polynomial.monomial(skip) * rest  # a product holds only its form
    if data.draw(st.booleans()):
        a, b = -a, -b
    assert b.valuation() == skip
    inv0 = b.coeff(skip).inverse()
    inverse = []
    for k in range(n):
        acc = ZERO if k else fe(1)
        for j in range(1, k + 1):
            acc = acc - b.coeff(skip + j) * inverse[k - j]
        inverse.append(acc * inv0)
    want = []
    for k in range(n):
        acc = ZERO
        for t in range(k + 1):
            acc = acc + a.coeff(t) * inverse[k - t]
        want.append(acc)
    assert poly.series_quotient(a, b, skip, n) == want


def test_valuation_edge_cases():
    r2 = fe(2).sqrt()
    assert Polynomial([fe(3)]).valuation() == 0
    assert (Polynomial.monomial(2) * Polynomial([r2, fe(1)])).valuation() == 2
    # a root part alone keeps a coefficient nonzero
    assert Polynomial([ZERO, r2, fe(1)]).valuation() == 1
    assert Polynomial([ZERO, FieldElement.make(0, 1)]).valuation() == 1
    with pytest.raises(ValueError):
        Polynomial().valuation()


# -- vanishes_at: the rational root theorem over Z[i] ---------------------------


@_ORACLE_SETTINGS
@given(data=st.data())
def test_vanishes_at_matches_eval_at_gaussian_points(backend, data):
    r = data.draw(gaussians())
    r_bar = FieldElement.make(r.ar, -r.ai)
    q = Polynomial(data.draw(st.lists(rationals(), min_size=1, max_size=4)))
    assume(not q.is_zero)
    # (x - r)(x - conj r) q is rational whatever r is
    p = poly_x_minus(r) * poly_x_minus(r_bar) * q
    assert all(c.is_rational for c in p.coeffs)
    assert p.vanishes_at(r) and p.vanishes_at(r_bar)
    for x in (r, r_bar, data.draw(gaussians()),
              data.draw(rationals()), r + FieldElement.make(0, fe(1, 7).ar)):
        assert p.vanishes_at(x) == _horner(p.coeffs, x).is_zero
        assert (-p).vanishes_at(x) == p.vanishes_at(x)


# -- deflate and root_denominator: the primitives of poly_roots ----------------


@settings(_ORACLE_SETTINGS, max_examples=60)
@given(data=st.data())
def test_deflate_counts_the_vanishing_taylor_coefficients(backend, data):
    scalars = data.draw(st.sampled_from([rationals, gaussians,
                                         sqrt2_elements]))
    x = data.draw(scalars())
    q = Polynomial(data.draw(st.lists(scalars(), min_size=1, max_size=4)))
    assume(not q.is_zero)
    p = q * poly_x_minus(x) ** data.draw(st.integers(0, 3))
    for point in (x, data.draw(st.one_of(scalars(), gaussians()))):
        quotient, mult = p.deflate(point)
        # the multiplicity is the number of zero Taylor coefficients at
        # point, the leading ones of the ascending p(t + point)
        shifted = p.shift(point).coeffs
        assert mult == next(k for k, c in enumerate(shifted)
                            if not c.is_zero)
        assert not _horner(quotient.coeffs, point).is_zero
        assert quotient * poly_x_minus(point) ** mult == p
        if mult == 0:
            assert quotient is p


def loop_shift(p, c):
    """Reference Taylor shift: Horner in x + c over FieldElement."""
    out = []
    for a in reversed(p.coeffs):
        new = [ZERO] * (len(out) + 1)
        for j, v in enumerate(out):
            new[j + 1] = new[j + 1] + v
            new[j] = new[j] + v * c
        new[0] = new[0] + a
        out = new
    return Polynomial(out)


# Under the mpq backend these runs are skipped where gmpy2 is absent.
@settings(_ORACLE_SETTINGS, max_examples=100)
@given(data=st.data())
def test_shift_matches_the_field_element_loop(backend, data):
    scalars = data.draw(st.sampled_from([rationals, gaussians,
                                         sqrt2_elements]))
    p = Polynomial(data.draw(st.lists(scalars(), max_size=7)))
    c = data.draw(st.one_of(rationals(), gaussians()))
    shifted = p.shift(c)
    assert shifted.coeffs == loop_shift(p, c).coeffs
    assert shifted.shift(-c) == p


@settings(_ORACLE_SETTINGS, max_examples=60)
@given(data=st.data())
def test_root_denominator_clears_every_gaussian_root(backend, data):
    scalars = data.draw(st.sampled_from([rationals, gaussians,
                                         sqrt2_elements]))
    lead = data.draw(scalars())
    assume(not lead.is_zero)
    roots = data.draw(st.lists(gaussians(), min_size=1, max_size=3))
    p = Polynomial([lead])
    for r in roots:
        p = p * poly_x_minus(r)
    scale = p.root_denominator()
    for r in roots:
        cleared = r * scale
        assert cleared.ar.denominator == 1 and cleared.ai.denominator == 1


def test_root_denominator_edge_cases():
    # 6x - 3 over 9: the primitive form is 2x - 1
    assert Polynomial([fe(-3, 9), fe(6, 9)]).root_denominator() == 2
    assert Polynomial([fe(5, 7)]).root_denominator() == 1
    assert Polynomial().root_denominator() is None
    mixed = Polynomial([_ext(fe(1), fe(1), _SQRT2), _ext(fe(1), fe(1), (3, 0))])
    assert mixed.root_denominator() is None


def test_shift_is_substitution():
    rng = random.Random(11)
    for _ in range(50):
        p = rand_poly(rng, rng.randint(0, 5))
        c = fe(rng.randint(-3, 3), rng.randint(1, 3))
        x0 = fe(rng.randint(-3, 3), rng.randint(1, 3))
        assert p.shift(c).eval(x0) == p.eval(x0 + c)


def test_derivative_product_rule():
    rng = random.Random(5)
    for _ in range(50):
        a = rand_poly(rng, rng.randint(0, 4))
        b = rand_poly(rng, rng.randint(0, 4))
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@settings(_ORACLE_SETTINGS, max_examples=80)
@given(data=st.data())
def test_derivative_matches_the_coefficient_loop(backend, data):
    real_ext = st.one_of(rationals(), sqrt2_elements())
    scalars = data.draw(st.sampled_from([rationals(), real_ext, gaussians()]))
    p = Polynomial(data.draw(st.lists(scalars, max_size=6)))
    derivative = p.derivative()
    assert derivative == Polynomial([k * c for k, c in enumerate(p.coeffs)][1:])
    # the integer path runs exactly when p has an integer form, and caches
    # the result's form
    assert (derivative._ints is None) == (p._form() is False)
    _assert_integer_form(derivative)


def test_derivative_drops_a_vanishing_root_part():
    p = Polynomial([_ext(fe(1), fe(3), _SQRT2), fe(2), fe(1, 3)])
    assert len(p._form()) == 4
    derivative = p.derivative()
    assert derivative == Polynomial([fe(2), fe(2, 3)])
    assert len(derivative._ints) == 2
    assert derivative * derivative == Polynomial([fe(4), fe(8, 3), fe(4, 9)])


def test_laurent_derivative_and_eval():
    g = LaurentPolynomial({3: fe(1, 3), 1: fe(-2), -1: fe(5)})
    dg = g.derivative()
    assert dg == LaurentPolynomial({2: fe(1), 0: fe(-2), -2: fe(-5)})
    x = 0.7 + 0.2j
    direct = (1 / 3) * x ** 3 - 2 * x + 5 / x
    assert abs(g.eval_complex(x) - direct) < 1e-12


def test_laurent_constant_term_and_zero_pruning():
    g = LaurentPolynomial({0: fe(4), 2: fe(0)})
    assert g.constant_term() == fe(4)
    assert list(g.terms) == [0]
    assert LaurentPolynomial({5: fe(0)}).is_zero


def test_laurent_hashable():
    a = LaurentPolynomial({1: fe(2)})
    b = LaurentPolynomial({1: fe(4, 2)})
    assert a == b and hash(a) == hash(b)
