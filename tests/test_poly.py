import random

import sympy as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from heunops.field import FieldElement, fe
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
