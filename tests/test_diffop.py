"""Operator composition, commutators, gauge conjugation.

The commutator oracle reconstructs an operator's coefficients from its action
on the monomials x^k (triangular solve), entirely independent of the
common-denominator bookkeeping inside compose().  Hypothesis tests compare
compose, commutator and gauge_transform with the per-term Leibniz loop they
replaced and with sympy, and a golden file pins their exact output.
"""

import itertools
import json
import random
from math import comb, factorial
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from heunops.field import I, fe
from heunops.poly import LaurentPolynomial, P_ONE, P_X, Polynomial, poly_x_minus
from heunops.ratfunc import RF_ONE, RF_ZERO, RationalFunction
from heunops.diffop import (DiffOp, commutator, compose, gauge_transform,
                            over_common_denominator)
from heunops.semicommute import SemiCommuteSpec, build_q1, build_q2
from heunops.serialize import encode_diffop


def rand_rf(rng, max_deg=2):
    num = Polynomial([fe(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(rng.randint(1, max_deg + 1))])
    den = Polynomial([fe(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(rng.randint(0, max_deg))] + [fe(1)])
    if num.is_zero:
        num = P_ONE
    return RationalFunction(num, den)


def rand_op(rng, order):
    return DiffOp([rand_rf(rng) for _ in range(order)] + [rand_rf(rng)])


def coeffs_from_action(apply_fn, order):
    """Recover operator coefficients from values on monomials x^k."""
    images = [apply_fn(RationalFunction.from_polynomial(Polynomial.monomial(k)))
              for k in range(order + 1)]
    coeffs = []
    for j in range(order + 1):
        acc = images[j]
        for i in range(j):
            # subtract c_i * d^i x^j = c_i * j!/(j-i)! x^(j-i)
            falling = fe(factorial(j) // factorial(j - i))
            acc = acc - coeffs[i] * falling * RationalFunction.from_polynomial(
                Polynomial.monomial(j - i))
        coeffs.append(acc * fe(1, factorial(j)))
    return coeffs


def test_compose_leibniz_trivial():
    dx = DiffOp.derivative_op()
    mult_x = DiffOp.multiplication(RationalFunction.from_polynomial(P_X))
    got = compose(dx, mult_x)
    assert got == DiffOp([RF_ONE,
                          RationalFunction.from_polynomial(P_X)])


def test_compose_pure_derivatives():
    d2 = DiffOp.derivative_op(2)
    assert compose(d2, d2) == DiffOp.derivative_op(4)


def test_compose_published_third_order_example():
    # P = d^2, Q = d + 2 composes to d^3 + 2 d^2
    p = DiffOp.derivative_op(2)
    q = DiffOp([fe(2), fe(1)])
    assert compose(q, p) == DiffOp([fe(0), fe(0), fe(2), fe(1)])


def test_compose_order_additivity():
    rng = random.Random(3)
    for _ in range(20):
        a = rand_op(rng, rng.randint(0, 2))
        b = rand_op(rng, rng.randint(0, 2))
        assert compose(a, b).order == a.order + b.order


def test_commutator_trivials():
    dx = DiffOp.derivative_op()
    mult_x = DiffOp.multiplication(RationalFunction.from_polynomial(P_X))
    assert commutator(dx, mult_x) == DiffOp([fe(1)])
    rng = random.Random(5)
    for _ in range(10):
        p = rand_op(rng, rng.randint(0, 3))
        assert commutator(p, p).is_zero


def test_commutator_against_monomial_oracle():
    rng = random.Random(7)
    for _ in range(25):
        p = rand_op(rng, 2)
        q = rand_op(rng, rng.randint(1, 2))
        c = commutator(p, q)
        order = max(p.order + q.order, 1)

        def action(f):
            return p.apply(q.apply(f)) - q.apply(p.apply(f))

        oracle = coeffs_from_action(action, order + 1)
        for k, val in enumerate(oracle):
            assert c.coeff(k) == val, f"coefficient {k} mismatch"


def test_commutator_degree1_closed_form():
    # [P, Q] = (2 q0' - b1 p1') d + q0'' + p1 q0' - b1 p0'
    rng = random.Random(11)
    for _ in range(25):
        p1 = rand_rf(rng)
        p0 = rand_rf(rng)
        q0 = rand_rf(rng)
        b1 = fe(rng.randint(-3, 3), rng.randint(1, 2))
        p = DiffOp([p0, p1, fe(1)])
        q = DiffOp([q0, b1])
        got = commutator(p, q)
        want = DiffOp([
            q0.derivative().derivative() + p1 * q0.derivative()
            - RationalFunction.constant(b1) * p0.derivative(),
            RationalFunction.constant(fe(2)) * q0.derivative()
            - RationalFunction.constant(b1) * p1.derivative(),
        ])
        assert got == want


def test_commutator_bilinear_antisymmetric_jacobi():
    rng = random.Random(13)
    for _ in range(10):
        a = rand_op(rng, 2)
        b = rand_op(rng, 2)
        c = rand_op(rng, rng.randint(1, 2))
        assert commutator(a, b) == -commutator(b, a).scale(fe(1))
        lhs = commutator(a, b + c)
        assert lhs == commutator(a, b) + commutator(a, c)
        jacobi = (commutator(a, commutator(b, c))
                  + commutator(b, commutator(c, a))
                  + commutator(c, commutator(a, b)))
        assert jacobi.is_zero


def test_commutator_order_bound():
    rng = random.Random(17)
    for _ in range(20):
        a = rand_op(rng, rng.randint(1, 2))
        b = rand_op(rng, rng.randint(1, 2))
        c = commutator(a, b)
        assert c.is_zero or c.order <= a.order + b.order - 1


def test_gauge_transform_linear_exponent():
    d2 = DiffOp.derivative_op(2)
    g = LaurentPolynomial({1: fe(3, 2)})
    assert gauge_transform(d2, g) == DiffOp([fe(9, 4), fe(3), fe(1)])


def test_gauge_transform_zero_is_identity():
    rng = random.Random(19)
    for _ in range(10):
        a = rand_op(rng, rng.randint(0, 2))
        assert gauge_transform(a, LaurentPolynomial.zero()) == a


def test_gauge_transform_inverse():
    rng = random.Random(23)
    for _ in range(10):
        a = rand_op(rng, rng.randint(1, 2))
        g = LaurentPolynomial({1: fe(rng.randint(-2, 2), rng.randint(1, 2)),
                               2: fe(rng.randint(-2, 2), rng.randint(1, 3)),
                               -1: fe(rng.randint(-1, 1))})
        assert gauge_transform(gauge_transform(a, g), -g) == a


def test_gauge_reduction_on_degree2_companion():
    # concrete operator with four regular points and a monic companion
    # P + mu; the exponential substitution with A^2 = -mu produces the
    # published three-pole form with first-order shift 2A
    from heunops.families import FAMILIES

    a, q = fe(2), fe(1)
    alpha, beta, gamma, delta = fe(1), fe(2), fe(1, 2), fe(1, 2)
    mu = fe(-1)
    p = FAMILIES["heun"].build(dict(a=a, q=q, alpha=alpha, beta=beta,
                                    gamma=gamma, delta=delta))
    q_monic = p + DiffOp([RationalFunction.constant(mu)])
    a_val = (-mu).sqrt()
    assert a_val == fe(1)
    transformed = gauge_transform(q_monic, LaurentPolynomial({1: a_val}))
    # first-order coefficient picks up exactly 2A
    assert transformed.coeff(1) - p.coeff(1) == RationalFunction.constant(fe(2))
    # zeroth coefficient: evaluate the published quadratic-over-cubic form
    eps = alpha + beta + 1 - delta - gamma
    a0 = -q
    a1 = mu * a + alpha * beta
    a2 = -mu * (a + 1)
    b0 = a_val * a * gamma + a0
    b1 = a_val * a * (a_val - delta - gamma) - a_val * (eps + gamma) + a1
    b2 = -a_val * a_val * (a + 1) + a_val * (alpha + beta + 1) + a2
    assert (b0, b1, b2) == (fe(0), fe(-7, 2), fe(4))
    den = P_X * poly_x_minus(fe(1)) * poly_x_minus(a)
    want = RationalFunction(Polynomial([b0, b1, b2]), den)
    assert transformed.coeff(0) == want


def test_op_equal_normalization():
    d2 = DiffOp.derivative_op(2)
    padded = DiffOp([RF_ZERO, RF_ZERO, RF_ONE])
    assert d2 == padded
    assert d2 == d2
    assert not d2 == DiffOp.derivative_op(1)


def test_apply_operator():
    p = DiffOp([fe(1), fe(2), fe(1)])  # d^2 + 2d + 1
    f = RationalFunction.from_polynomial(P_X ** 2)
    got = p.apply(f)
    want = RationalFunction.from_polynomial(
        Polynomial([fe(2), fe(4), fe(1)]))
    assert got == want


# -- exact output of the operator layer ---------------------------------------

def _seeded_operator_triples(seed=0, count=40):
    """Seeded monic order-2 operators P = d^2 + (n1/D) d + n0/D over a random
    monic quadratic D shared by both coefficients, with linear numerators,
    each with a degree-1 and a degree-2 semi-commuting companion."""
    rng = random.Random(f"operators|{seed}")

    def rational():
        return fe(rng.randint(-3, 3), rng.randint(1, 4))

    def nonzero():
        return fe(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))

    for _ in range(count):
        den = Polynomial([rational(), rational(), fe(1)])
        p = DiffOp([RationalFunction(Polynomial([rational(), nonzero()]), den),
                    RationalFunction(Polynomial([rational(), nonzero()]), den),
                    fe(1)])
        q1 = build_q1(p, SemiCommuteSpec(degree=1, beta0=rational(),
                                         beta1=nonzero()))
        q2 = build_q2(p, SemiCommuteSpec(degree=2, beta0=rational(),
                                         beta1=nonzero(), beta2=nonzero()))
        yield p, q1, q2


def _operator_golden_lines(seed=0):
    """One JSON line per seeded operator: q1∘p, q2∘p, [p, q1] and [p, q2]."""
    for p, q1, q2 in _seeded_operator_triples(seed):
        yield json.dumps({
            "q1_p": encode_diffop(compose(q1, p)),
            "q2_p": encode_diffop(compose(q2, p)),
            "p_q1": encode_diffop(commutator(p, q1)),
            "p_q2": encode_diffop(commutator(p, q2)),
        }, sort_keys=True)


def test_operator_products_match_golden():
    """Products and commutators, coefficient for coefficient, against
    tests/data/operators_seed0.jsonl.  Regenerate that file only when a
    change of exact output is intended, by writing _operator_golden_lines()
    one per line."""
    golden = Path(__file__).parent / "data" / "operators_seed0.jsonl"
    assert list(_operator_golden_lines()) == golden.read_text().splitlines()


# -- oracles: the Leibniz loop and sympy ---------------------------------------

def _reference_compose(a, b):
    """a∘b by the Leibniz rule, one reduced product and one reduced sum per
    term: the per-term loop compose() replaced."""
    if a.is_zero or b.is_zero:
        return DiffOp.zero()
    derivs = []
    for c in b.coeffs:
        row = [c]
        for _ in range(a.order):
            row.append(row[-1].derivative())
        derivs.append(row)
    out = [RF_ZERO] * (a.order + b.order + 1)
    for i, ai in enumerate(a.coeffs):
        for j, row in enumerate(derivs):
            for m in range(i + 1):
                out[m + j] = out[m + j] + ai * row[i - m] * fe(comb(i, m))
    return DiffOp(out)


def _reference_gauge(op, g):
    """sum c_k (d + g')^k through _reference_compose."""
    shifted = DiffOp([RationalFunction.from_laurent(g.derivative()), RF_ONE])
    out, power = DiffOp.zero(), DiffOp([RF_ONE])
    for k, c in enumerate(op.coeffs):
        if k:
            power = _reference_compose(power, shifted)
        out = out + power.scale(c)
    return out


#: The one extension each drawn example works over; None is Q itself.
_EXTENSIONS = {"Q": None, "Q(i)": I, "Q(sqrt 2)": fe(2).sqrt(),
               "Q(sqrt -3)": fe(-3).sqrt()}

_X = sp.Symbol("x")
_F = sp.Function("f")(_X)


@st.composite
def operator_lists(draw, orders, fields=tuple(sorted(_EXTENSIONS))):
    """Operators over one field drawn from fields, one per entry of orders;
    an entry of None draws the order from 0-3.  Their denominators are
    shared by every coefficient or drawn per coefficient, from 1, x, x^2,
    (x-1)^2 (x+2), a random monic quadratic and x - s for the field's
    generator s; numerators may be zero or constant."""
    gen = _EXTENSIONS[draw(st.sampled_from(fields))]

    def rational():
        return fe(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))

    def scalar():
        c = rational()
        if gen is not None and draw(st.booleans()):
            c = c + rational() * gen
        return c

    def den():
        quadratic = Polynomial([rational(), rational(), 1])
        choices = [P_ONE, P_X, P_X ** 2,
                   poly_x_minus(fe(1)) ** 2 * poly_x_minus(fe(-2)),
                   quadratic]
        if gen is not None:
            choices.append(poly_x_minus(gen))
        return draw(st.sampled_from(choices))

    def operator(order):
        shared = den() if draw(st.booleans()) else None
        if order is None:
            order = draw(st.integers(0, 3))
        coeffs = []
        for k in range(order + 1):
            num = Polynomial([scalar() for _ in range(draw(st.integers(0, 2)))])
            if k == order and num.is_zero:
                num = P_ONE
            coeffs.append(RationalFunction(num, shared or den()))
        return DiffOp(coeffs)

    return [operator(order) for order in orders]


def operator_pairs():
    """Two operators of order 0-3 over one drawn field (operator_lists)."""
    return operator_lists((None, None))


def _sympy_rational(v):
    return sp.Rational(int(v.numerator), int(v.denominator))


def _to_sympy_scalar(c):
    out = _sympy_rational(c.ar) + _sympy_rational(c.ai) * sp.I
    if c.d is not None:
        out += ((_sympy_rational(c.br) + _sympy_rational(c.bi) * sp.I)
                * sp.sqrt(_sympy_rational(c.d[0])
                          + _sympy_rational(c.d[1]) * sp.I))
    return out


def _to_sympy_rf(r):
    def poly(p):
        return sum((_to_sympy_scalar(c) * _X ** k
                    for k, c in enumerate(p.coeffs)), sp.Integer(0))

    return poly(r.num) / poly(r.den)


def _sympy_apply(op, expr):
    return sum((_to_sympy_rf(c) * sp.diff(expr, _X, k)
                for k, c in enumerate(op.coeffs)), sp.Integer(0))


def _sympy_is_zero(expr, order):
    """Whether an expression linear in f, f', ..., f^(order) vanishes: each
    coefficient cancels to 0 over the algebraic field its constants span."""
    ys = sp.symbols(f"y0:{order + 1}")
    jets = {sp.Derivative(_F, (_X, k)): ys[k] for k in range(1, order + 1)}
    expr = expr.xreplace(jets).xreplace({_F: ys[0]})
    return all(sp.cancel(sp.diff(expr, y), extension=True) == 0 for y in ys)


class _SympyJets:
    """Operators applied to a symbolic f in sympy's field of rational
    functions in x over the constants the operators use.  A jet [c_0, c_1,
    ...] stands for sum c_k f^(k), and d acts on it as the derivation
    (c_k f^(k))' = c_k' f^(k) + c_k f^(k+1).

    coefficients() converts an operator once; each scalar is built with
    domain arithmetic from the images of I and of each sqrt(radicand),
    which domain.from_sympy computes once."""

    def __init__(self, *ops):
        exprs = [_to_sympy_rf(c) for op in ops for c in op.coeffs]
        # sqrt(-3) prints as sqrt(3)*I, so I and each root are generators
        gens = {a for e in exprs for a in e.atoms(sp.Pow) if a.is_number}
        if any(e.has(sp.I) for e in exprs):
            gens.add(sp.I)
        self.domain = sp.QQ.algebraic_field(*gens) if gens else sp.QQ
        self.field, _ = sp.field([_X], self.domain)
        self.x = self.field.ring.gens[0]
        self._images = {}

    def _image(self, expr):
        """expr in the domain, through domain.from_sympy once."""
        if expr not in self._images:
            self._images[expr] = self.domain.from_sympy(expr)
        return self._images[expr]

    def _rational(self, v):
        return self.domain.convert_from(
            sp.QQ(int(v.numerator), int(v.denominator)), sp.QQ)

    def _gaussian(self, re, im):
        out = self._rational(re)
        if im:
            out += self._rational(im) * self._image(sp.I)
        return out

    def _scalar(self, c):
        out = self._gaussian(c.ar, c.ai)
        if c.d is not None:
            root = sp.sqrt(_sympy_rational(c.d[0])
                           + _sympy_rational(c.d[1]) * sp.I)
            out += self._gaussian(c.br, c.bi) * self._image(root)
        return out

    def _poly(self, p):
        ring = self.field.ring
        return ring.from_dict({(k,): self._scalar(c)
                               for k, c in enumerate(p.coeffs)
                               if not c.is_zero})

    def coefficients(self, op):
        """op's coefficients as elements of the field."""
        return [self.field(self._poly(c.num)) / self.field(self._poly(c.den))
                for c in op.coeffs]

    def f(self):
        return [self.field.one]

    def apply(self, coeffs, jet):
        """The operator with the given field coefficients applied to jet."""
        zero = self.field.zero
        out = [zero] * (len(jet) + len(coeffs) - 1)
        for k, coeff in enumerate(coeffs):
            if k:
                jet = [self._derivative(a) + b
                       for a, b in zip(jet + [zero], [zero] + jet)]
            for t, a in enumerate(jet):
                out[t] += coeff * a
        return out

    def _derivative(self, a):
        n, d = a.numer, a.denom
        return self.field(n.diff(self.x) * d - n * d.diff(self.x)) \
            / self.field(d * d)

    def same(self, jet_a, jet_b):
        zero = self.field.zero
        return all(a == b for a, b in
                   itertools.zip_longest(jet_a, jet_b, fillvalue=zero))


_DIFFOP_ORACLE = settings(max_examples=150, deadline=None, derandomize=True)


@_DIFFOP_ORACLE
@given(pair=operator_pairs())
def test_compose_and_commutator_match_the_leibniz_loop(pair):
    a, b = pair
    ab, ba = _reference_compose(a, b), _reference_compose(b, a)
    assert compose(a, b) == ab
    assert compose(b, a) == ba
    assert commutator(a, b) == ab - ba


@settings(_DIFFOP_ORACLE, max_examples=20,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=operator_lists((None, 2, 0, 1, 3)))
def test_a_reused_operator_matches_fresh_copies(backend, ops):
    """One operator b serves as the right operand of left operands of
    orders 2, 0, 1 and 3, in that order, so its cached derivative table is
    read, then extended; commutators before and after read its cached
    common-denominator form too.  Every result equals the Leibniz loop on
    fresh copies, which share no cache with b."""
    b, *lefts = ops

    def fresh(op):
        return DiffOp(op.coeffs)

    ab = [_reference_compose(fresh(a), fresh(b)) for a in lefts]
    ba = [_reference_compose(fresh(b), fresh(a)) for a in lefts]
    assert commutator(lefts[0], b) == ab[0] - ba[0]
    for a, want in zip(lefts, ab):
        assert compose(a, b) == want
    for a, x, y in zip(lefts, ab, ba):
        assert commutator(b, a) == y - x
    nums, den = over_common_denominator(b)
    with pytest.raises(TypeError):
        nums[0] = P_ONE
    assert over_common_denominator(b) == over_common_denominator(fresh(b))


@settings(_DIFFOP_ORACLE, max_examples=30)
@given(pair=operator_pairs())
def test_compose_and_commutator_match_sympy(pair):
    a, b = pair
    jets = _SympyJets(a, b)
    ca, cb = jets.coefficients(a), jets.coefficients(b)
    ab = jets.apply(ca, jets.apply(cb, jets.f()))
    ba = jets.apply(cb, jets.apply(ca, jets.f()))
    assert jets.same(jets.apply(jets.coefficients(compose(a, b)), jets.f()),
                     ab)
    assert jets.same(
        jets.apply(jets.coefficients(commutator(a, b)), jets.f()),
        [x - y for x, y in zip(ab, ba)])


@st.composite
def exponents(draw):
    """A Laurent polynomial with up to three terms of degree -2..3."""
    return LaurentPolynomial({k: fe(draw(st.integers(-2, 2)),
                                    draw(st.integers(1, 3)))
                              for k in draw(st.sets(st.integers(-2, 3),
                                                    max_size=3))})


@st.composite
def gauge_cases(draw):
    op, _ = draw(operator_pairs())
    return op, draw(exponents())


@settings(_DIFFOP_ORACLE, max_examples=60)
@given(case=gauge_cases())
def test_gauge_transform_matches_the_reference_and_sympy(case):
    op, g = case
    got = gauge_transform(op, g)
    assert got == _reference_gauge(op, g)
    g_expr = sum((_to_sympy_scalar(v) * _X ** k for k, v in g.terms.items()),
                 sp.Integer(0))
    conjugated = sp.exp(-g_expr) * _sympy_apply(op, sp.exp(g_expr) * _F)
    assert _sympy_is_zero(conjugated - _sympy_apply(got, _F), op.order)


# -- lazy products: coefficients are reduced when first read -------------------

#: Fields of the lazy-product oracles.
_LAZY_FIELDS = ("Q", "Q(i)", "Q(sqrt 2)")

_LAZY_ORACLE = settings(_DIFFOP_ORACLE, max_examples=30,
                        suppress_health_check=[
                            HealthCheck.function_scoped_fixture])


def _as_product(op):
    """op as a product that holds only its form: op composed with the
    identity, whose numerators sit over the lcm of op's denominators."""
    return compose(op, DiffOp([RF_ONE]))


def _products(a, b, g):
    """(label, product, reference) for a∘b, b∘a, [a, b] and the conjugation
    of a by e^g; each reference is the Leibniz loop on fresh copies."""
    fa, fb = DiffOp(a.coeffs), DiffOp(b.coeffs)
    ab, ba = _reference_compose(fa, fb), _reference_compose(fb, fa)
    return [("a∘b", compose(a, b), ab), ("b∘a", compose(b, a), ba),
            ("[a, b]", commutator(a, b), ab - ba),
            ("gauge", gauge_transform(a, g), _reference_gauge(fa, g))]


@_LAZY_ORACLE
@given(ops=operator_lists((None, None), _LAZY_FIELDS), g=exponents())
def test_products_reduce_to_the_leibniz_loop_when_read(backend, ops, g):
    """A product holds only its form until a coefficient is read; its order
    and zero test, read off the form, agree with the reduced coefficients,
    which equal the Leibniz loop's tuple for tuple and are built once."""
    a, b = ops
    for label, got, want in _products(a, b, g):
        assert got.is_zero == want.is_zero, label
        assert got.order == want.order, label
        assert got._coeffs is None or got.is_zero, label
        assert got.coeffs == want.coeffs, label
        assert got.coeffs is got.coeffs, label
        assert got._coeffs is not None, label


@_LAZY_ORACLE
@given(ops=operator_lists((None, None), _LAZY_FIELDS), g=exponents())
def test_product_equality_matches_the_reduced_tuples(backend, ops, g):
    """== on products, lazy or not on either side, is equality of the
    reduced coefficient tuples: equal operators over different common
    denominators compare equal and hash equal, an operator that differs in
    one coefficient compares unequal, and a zero commutator equals the zero
    operator.  Comparisons leave a product unreduced."""
    a, b = ops
    bumps = (RationalFunction.from_polynomial(P_X),
             RationalFunction(P_X, poly_x_minus(fe(1, 2))))
    for label, got, want in _products(a, b, g):
        reduced = want.coeffs
        eager = DiffOp(reduced)
        lazy = _as_product(eager)
        for x, y in ((got, eager), (eager, got), (got, lazy), (lazy, got),
                     (lazy, eager), (eager, lazy)):
            assert x == y and not x != y, label
        zero = DiffOp.zero()
        assert (got == zero) == (zero == got) == (reduced == ()), label
        for k in range(len(reduced) + 1):
            # a polynomial bump keeps a polynomial product's denominator
            cs = list(reduced) + [RF_ZERO]
            cs[k] = cs[k] + bumps[k % 2]
            other = DiffOp(cs)
            assert other.coeffs != reduced, label
            for x, y in ((got, other), (other, got),
                         (got, _as_product(other)), (_as_product(other), got)):
                assert x != y and not x == y, (label, k)
        assert got._coeffs is None or got.is_zero, label
        assert hash(got) == hash(eager) == hash(lazy), label
    square = compose(a, a)
    for c in (commutator(a, square), commutator(square, a)):
        assert c.is_zero and c == DiffOp.zero() and DiffOp.zero() == c
        assert hash(c) == hash(DiffOp.zero())


def test_equality_across_denominators():
    """x d + 1 as a product over x^2 (x - 2), unreduced, equals it over its
    reduced denominator 1, in either order and lazy or not, and differs from
    every operator that changes one coefficient, over the same denominator
    or another."""
    x = RationalFunction.from_polynomial(P_X)
    h = P_X ** 2 * poly_x_minus(fe(2))
    up = DiffOp.multiplication(RationalFunction.from_polynomial(h))
    down = DiffOp.multiplication(RationalFunction(P_ONE, h))

    def over_h(op):
        return compose(up, compose(down, op))

    want = DiffOp([RF_ONE, x])
    got = over_h(want)
    assert over_common_denominator(got)[1] == h
    assert over_common_denominator(_as_product(want))[1] == P_ONE
    for other in (want, _as_product(want), over_h(want)):
        assert got == other and other == got
    for k in (0, 1, 2):
        cs = [RF_ONE, x, RF_ZERO]
        cs[k] = cs[k] + RF_ONE
        same_den = over_h(DiffOp(cs))
        assert over_common_denominator(same_den)[1] == h
        for other in (DiffOp(cs), _as_product(DiffOp(cs)), same_den):
            assert got != other and other != got, k
    assert got._coeffs is None
    assert got.coeffs == want.coeffs and hash(got) == hash(want)
