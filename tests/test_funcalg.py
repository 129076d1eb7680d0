"""Closed-form function algebra: differentiation closure and annihilation."""

import cmath
import random

import numpy as np
import pytest

from heunops import catalog as cat
from heunops.field import fe, ONE, ZERO
from heunops.poly import LaurentPolynomial, P_ONE, P_X, Polynomial
from heunops.ratfunc import PoleError, RationalFunction, rf
from heunops.diffop import DiffOp
from heunops.funcalg import (BranchPointError, ExpMonomial, FunctionSum,
                             annihilates, wronskian_numeric)


def exp_term(rate, rat=None, rho=ZERO):
    rat = rat if rat is not None else rf(1)
    return ExpMonomial(rat, rho, LaurentPolynomial({1: rate}))


def test_diff_exponential():
    lam = fe(3, 2)
    f = FunctionSum([exp_term(lam)])
    df = f.derivative()
    assert len(df.terms) == 1
    assert df.terms[0].rat == RationalFunction.constant(lam)
    assert df.terms[0].g == LaurentPolynomial({1: lam})


def test_diff_power():
    rho = fe(5, 3)
    f = FunctionSum([ExpMonomial(rf(1), rho)])
    df = f.derivative()
    term = df.terms[0]
    assert term.rho == rho  # x^(rho-1) realized through rat = rho/x
    assert term.rat == RationalFunction(Polynomial([rho]), P_X)


def test_integer_power_folds_into_rational_part():
    m = ExpMonomial(rf(1), fe(3))
    assert m.rho == ZERO
    assert m.rat == RationalFunction.from_polynomial(Polynomial.monomial(3))
    m_neg = ExpMonomial(rf(1), fe(-2))
    assert m_neg.rat == RationalFunction(P_ONE, Polynomial.monomial(2))


def test_exponent_constant_rejected():
    with pytest.raises(ValueError):
        ExpMonomial(rf(1), ZERO, LaurentPolynomial({0: fe(1), 1: fe(1)}))


def test_diff_matches_finite_difference():
    # x^(-3/2) e^(x^3/3) at x = 1/2
    f = FunctionSum([ExpMonomial(rf(1), fe(-3, 2),
                                 LaurentPolynomial({3: fe(1, 3)}))])
    df = f.derivative()
    x = 0.5
    h = 1e-6
    approx = (f.eval_complex(x + h) - f.eval_complex(x - h)) / (2 * h)
    exact = df.eval_complex(x)
    assert abs(approx - exact) / abs(exact) < 1e-8


def test_diff_matches_central_differences_at_generic_points():
    rng = random.Random(97)
    h = 1e-6
    points = (0.41, 1.37, -0.83, 2.19, 0.67)
    for _ in range(10):
        f = FunctionSum([ExpMonomial(
            rf(rng.randint(1, 3), rng.randint(1, 2)),
            fe(rng.randint(-3, 3), 2),
            LaurentPolynomial({1: fe(rng.randint(-2, 2), 2)}))])
        df = f.derivative()
        checked = 0
        for x in points:
            approx = (f.eval_complex(x + h) - f.eval_complex(x - h)) / (2 * h)
            exact = df.eval_complex(x)
            if abs(exact) > 1e-3:
                assert abs(approx - exact) / abs(exact) < 1e-6
                checked += 1
        assert checked >= 3


def test_diff_is_derivation_on_products():
    rng = random.Random(41)
    for _ in range(100):
        m1 = ExpMonomial(rf(rng.randint(1, 3), rng.randint(1, 2)),
                         fe(rng.randint(-2, 2), 2),
                         LaurentPolynomial({1: fe(rng.randint(-2, 2))}))
        m2 = ExpMonomial(rf(rng.randint(1, 3)),
                         fe(rng.randint(-2, 2), 2),
                         LaurentPolynomial({2: fe(rng.randint(-1, 1), 2)}))
        product = FunctionSum([m1 * m2])
        lhs = product.derivative()
        rhs = (FunctionSum([m1.derivative() * m2])
               + FunctionSum([m1 * m2.derivative()]))
        assert lhs == rhs


def test_apply_op_annihilates_exponentials():
    # (d^2 - d - 2) e^(2x) = 0 and e^(-x): rates are the char roots 2, -1
    p = DiffOp([fe(-2), fe(-1), fe(1)])
    for rate in (fe(2), fe(-1)):
        assert annihilates(p, FunctionSum([exp_term(rate)]))
    assert not annihilates(p, FunctionSum([exp_term(fe(1))]))


def test_apply_op_power_solution():
    # d^2 + (3/x - 1) d + (3/4 - 3/(2x)) ... realized via the family
    from heunops.families import FAMILIES

    tau = fe(3)
    p = FAMILIES["double_confluent"].build(dict(
        tau=tau, nu=fe(0), alpha=tau / 2, q=tau / 2 - tau * tau / 4))
    f = FunctionSum([ExpMonomial(rf(1), -tau / 2)])
    assert annihilates(p, f)
    g = FunctionSum([ExpMonomial(rf(1), -tau / 2, LaurentPolynomial({1: ONE}))])
    assert annihilates(p, g)


def test_apply_derivative_to_constant():
    assert annihilates(DiffOp.derivative_op(), FunctionSum([ExpMonomial(rf(1))]))


def test_eval_trivials():
    assert FunctionSum([ExpMonomial(rf(1))]).eval_complex(2.3) == 1
    half_power = FunctionSum([ExpMonomial(rf(1), fe(1, 2))])
    assert abs(half_power.eval_complex(4.0) - 2.0) < 1e-12


def test_eval_branch_point_errors():
    f = FunctionSum([ExpMonomial(rf(1), fe(1, 2))])
    with pytest.raises(BranchPointError):
        f.eval_complex(0j)
    g = FunctionSum([ExpMonomial(rf(1), ZERO, LaurentPolynomial({-1: ONE}))])
    with pytest.raises(BranchPointError):
        g.eval_complex(0j)


def test_wronskian_of_independent_triple():
    funcs = [
        FunctionSum([ExpMonomial(rf(1))]),
        FunctionSum([ExpMonomial(RationalFunction.from_polynomial(P_X))]),
        FunctionSum([exp_term(fe(-1))]),
    ]
    value = wronskian_numeric(funcs, 0j)
    assert abs(value - 1.0) < 1e-12


def test_like_terms_merge_and_cancel():
    m = exp_term(fe(2))
    total = FunctionSum([(ONE, m), (fe(-1), m)])
    assert total.is_zero
    doubled = FunctionSum([(ONE, m), (ONE, m)])
    assert len(doubled.terms) == 1
    assert doubled.terms[0].rat == rf(2)


def _wronskian_by_exact_derivatives(funcs, x):
    """Reference Wronskian from exact derivatives evaluated term by term at
    x != 0, with the Hadamard bound (product of row norms) that scales its
    rounding error."""

    def value(f):
        total = 0j
        for t in f.terms:
            total += (t.rat.eval_complex(x)
                      * cmath.exp(t.rho.to_complex() * cmath.log(x))
                      * cmath.exp(t.g.eval_complex(x)))
        return total

    rows = []
    current = list(funcs)
    for _ in funcs:
        rows.append([value(f) for f in current])
        current = [f.derivative() for f in current]
    matrix = np.array(rows, dtype=complex)
    return (complex(np.linalg.det(matrix)),
            float(np.prod(np.linalg.norm(matrix, axis=1))))


def test_jet_wronskian_matches_exact_derivatives_on_catalog_bases():
    x = complex(1 / 3)
    checked = 0
    for rec in cat.enumerate_cases():
        descriptors = rec.basis_P + rec.basis_Q
        if rec.kind == "no_nontrivial" or not descriptors:
            continue
        for draw in range(3):
            env = cat.resolve_env(rec, cat.draw_env(rec, 0, draw))
            funcs = [cat._basis_function(d, env) for d in descriptors]
            jet = wronskian_numeric(funcs, x)
            ref, _ = _wronskian_by_exact_derivatives(funcs, x)
            assert abs(jet - ref) <= 1e-9 * abs(ref), (rec.id, draw)
            assert abs(jet) > 1e-6 and abs(ref) > 1e-6, (rec.id, draw)
            # a repeated function: both Wronskians vanish up to rounding
            # and both reject the basis
            repeated = funcs[:1] + funcs
            jet = wronskian_numeric(repeated, x)
            ref, bound = _wronskian_by_exact_derivatives(repeated, x)
            assert abs(jet - ref) <= 1e-9 * bound, (rec.id, draw)
            assert abs(jet) <= 1e-6 and abs(ref) <= 1e-6, (rec.id, draw)
            checked += 1
    assert checked >= 75


def test_jet_wronskian_higher_derivatives_of_single_terms():
    # x^(-3/2) (x-2)/(x+1) e^(x^3/3 - 1/x): every jet factor at once
    term = ExpMonomial(RationalFunction(Polynomial([fe(-2), ONE]),
                                        Polynomial([ONE, ONE])),
                       fe(-3, 2), LaurentPolynomial({3: fe(1, 3), -1: -ONE}))
    funcs = [FunctionSum([term]), FunctionSum([exp_term(fe(2))]),
             FunctionSum([ExpMonomial(rf(1), fe(1, 3))]),
             FunctionSum([ExpMonomial(RationalFunction.from_polynomial(P_X))])]
    for x in (0.7, -1.3 + 0.4j, 2.5):
        jet = wronskian_numeric(funcs, x)
        ref, _ = _wronskian_by_exact_derivatives(funcs, x)
        assert abs(jet - ref) <= 1e-9 * abs(ref)


def test_jet_wronskian_raises_at_pole():
    pole = FunctionSum([ExpMonomial(RationalFunction(P_ONE,
                                                     Polynomial([fe(-1, 2),
                                                                 ONE])))])
    with pytest.raises(PoleError):
        wronskian_numeric([FunctionSum([exp_term(ONE)]), pole], 0.5)


def test_jet_wronskian_raises_at_branch_points():
    half_power = FunctionSum([ExpMonomial(rf(1), fe(1, 2))])
    exp_pole = FunctionSum([ExpMonomial(rf(1), ZERO,
                                        LaurentPolynomial({-1: ONE}))])
    for f in (half_power, exp_pole):
        with pytest.raises(BranchPointError):
            wronskian_numeric([FunctionSum([exp_term(ONE)]), f], 0j)
