"""Operator composition, commutators, gauge conjugation.

The commutator oracle reconstructs an operator's coefficients from its action
on the monomials x^k (triangular solve), entirely independent of the Leibniz
bookkeeping inside compose().
"""

import random
from math import factorial

from heunops.field import fe
from heunops.poly import LaurentPolynomial, P_ONE, P_X, Polynomial, poly_x_minus
from heunops.ratfunc import RF_ONE, RF_ZERO, RationalFunction
from heunops.diffop import DiffOp, commutator, compose, gauge_transform


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
    from heunops.families import HeunParams

    a, q = fe(2), fe(1)
    alpha, beta, gamma, delta = fe(1), fe(2), fe(1, 2), fe(1, 2)
    mu = fe(-1)
    p = HeunParams(a=a, q=q, alpha=alpha, beta=beta, gamma=gamma,
                   delta=delta).build()
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
