"""Companion construction, residuals, and the wrong-recursion counterexample."""

import random

import pytest

from heunops.field import fe, ZERO
from heunops.poly import P_ONE, P_X, Polynomial, poly_x_minus
from heunops.ratfunc import RationalFunction, rf
from heunops.diffop import DiffOp, commutator, compose
from heunops.families import FAMILIES
from heunops.semicommute import (GorderObstructionError, NotSemiCommutingError,
                                 OperatorShapeError, SemiCommuteSpec,
                                 build_q1, build_q2, counterexample_report,
                                 gorder_q1, residual)


def rand_rf(rng, max_deg=2):
    num = Polynomial([fe(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(rng.randint(1, max_deg + 1))])
    den = Polynomial([fe(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(rng.randint(0, max_deg))] + [fe(1)])
    if num.is_zero:
        num = P_ONE
    return RationalFunction(num, den)


def rand_monic2(rng):
    return DiffOp([rand_rf(rng), rand_rf(rng), fe(1)])


def spec1(b0, b1):
    return SemiCommuteSpec(degree=1, beta0=b0, beta1=b1)


def spec2(b0, b1, b2):
    return SemiCommuteSpec(degree=2, beta0=b0, beta1=b1, beta2=b2)


def test_build_q1_published_first_degree_family():
    # 2/x first-order coefficient: gamma=2 with the other pole weights zero
    p = FAMILIES["heun"].build(dict(a=fe(2), q=fe(0), alpha=fe(1),
                                    beta=fe(0), gamma=fe(2), delta=fe(0)))
    assert p.coeff(1) == RationalFunction(Polynomial([fe(2)]), P_X)
    q = build_q1(p, spec1(fe(3), fe(1)))
    assert q.coeff(1) == rf(1)
    assert q.coeff(0) == RationalFunction(Polynomial([fe(1), fe(3)]), P_X)


def test_build_q1_constant_p1():
    p = DiffOp([rf(0), rf(0), fe(1)])
    q = build_q1(p, spec1(fe(5), fe(2)))
    assert q == DiffOp([fe(5), fe(2)])


def test_build_q1_commutator_order_zero_100_random():
    rng = random.Random(43)
    for _ in range(100):
        p = rand_monic2(rng)
        q = build_q1(p, spec1(fe(rng.randint(-3, 3)),
                              fe(rng.randint(1, 3))))
        c = commutator(p, q)
        assert c.is_zero or c.order == 0


def test_build_q1_requires_monic_order2():
    with pytest.raises(OperatorShapeError):
        build_q1(DiffOp.derivative_op(1), spec1(fe(0), fe(1)))
    with pytest.raises(OperatorShapeError):
        build_q1(DiffOp([rf(0), rf(0), rf(2)]), spec1(fe(0), fe(1)))


def test_build_q2_published_numerator_coefficients():
    # generic operator: single-fraction zeroth coefficient has cubic
    # numerator with leading beta0 and the stated x^2 coefficient
    a, q_, alpha, beta = fe(2), fe(1, 3), fe(1, 2), fe(1, 3)
    gamma, delta = fe(1, 2), fe(1, 2)
    given = dict(a=a, q=q_, alpha=alpha, beta=beta, gamma=gamma, delta=delta)
    p = FAMILIES["heun"].build(given)
    b0, b1, b2 = fe(1, 2), fe(-1), fe(3, 4)
    q_op = build_q2(p, spec2(b0, b1, b2))
    eps = FAMILIES["heun"].values(given)["epsilon"]
    den = P_X * poly_x_minus(fe(1)) * poly_x_minus(a)
    q0 = q_op.coeff(0)
    combined = q0 * RationalFunction.from_polynomial(den)
    numerator = combined.to_polynomial()
    assert numerator.coeff(3) == b0
    assert numerator.coeff(2) == -b0 * (a + 1) + (b1 / 2) * (delta + eps + gamma)
    assert numerator.coeff(1) == (b0 * a + alpha * beta * b2
                                  - (b1 / 2) * (a * (delta + gamma) + eps + gamma))
    assert numerator.coeff(0) == b1 * gamma * a / 2 - b2 * q_


def test_build_q2_scalar_multiple_when_lower_constants_vanish():
    rng = random.Random(47)
    p = rand_monic2(rng)
    q = build_q2(p, spec2(fe(0), fe(0), fe(5, 2)))
    assert q == p.scale(fe(5, 2))


def test_build_q2_biconfluent_pole_coefficient_relabeling():
    # the published 1/x weight is (tau*(beta1+beta2) - 2*beta2*q)/2 in the
    # family's own labels; with construction constants bc1 the same weight
    # reads (tau*bc1 - 2*beta2*q)/2
    tau, nu, alpha, q_ = fe(1, 2), fe(1, 3), fe(2), fe(1, 4)
    p = FAMILIES["biconfluent"].build(dict(tau=tau, nu=nu, alpha=alpha, q=q_))
    bc0, bc1, b2 = fe(1, 5), fe(-2, 3), fe(7, 4)
    q_op = build_q2(p, spec2(bc0, bc1, b2))
    form = q_op.coeff(0)
    # residue of q0 at x = 0
    from heunops.ratfunc import partial_fractions
    pf = partial_fractions(form, [ZERO])
    terms = {k: c for _, k, c in pf.pole_terms}
    paper_beta1 = bc1 - b2
    assert terms[1] == (tau * (paper_beta1 + b2) - 2 * b2 * q_) / 2
    assert terms[1] == (tau * bc1 - 2 * b2 * q_) / 2


def test_build_q2_structural_identity_100_random():
    rng = random.Random(53)
    for _ in range(100):
        p = rand_monic2(rng)
        b0 = fe(rng.randint(-3, 3), rng.randint(1, 2))
        b1 = fe(rng.randint(-3, 3), rng.randint(1, 2))
        b2 = fe(rng.randint(1, 3), rng.randint(1, 2))
        q = build_q2(p, spec2(b0, b1, b2))
        c = commutator(p, q)
        assert c.is_zero or c.order == 0
        half_p1 = p.coeff(1) * fe(1, 2)
        probe = q - p.scale(b2) - DiffOp([half_p1 * b1,
                                          RationalFunction.constant(b1)])
        assert probe.order <= 0
        assert probe.is_zero or probe.coeff(0).is_constant()


def test_residual_zero_for_commuting_instance():
    p = FAMILIES["heun"].build(dict(a=fe(2), q=fe(0), alpha=fe(0),
                                    beta=fe(1), gamma=fe(0), delta=fe(0)))
    rep = residual(p, build_q1(p, spec1(fe(1), fe(1))))
    assert rep.commutes and rep.residual.is_zero and not rep.local_points


def test_residual_against_first_order_condition_oracle():
    # independent oracle: the zeroth coefficient of [P,Q] must equal
    # q0'' + p1 q0' - beta1 p0', computed by plain differentiation
    p = FAMILIES["heun"].build(dict(a=fe(2), q=fe(0), alpha=fe(0),
                                    beta=fe(0), gamma=fe(1), delta=fe(0)))
    assert p.coeff(1) == RationalFunction(P_ONE, P_X)
    assert p.coeff(0).is_zero
    b1, b0 = fe(1), fe(0)
    q = build_q1(p, spec1(b0, b1))
    q0 = q.coeff(0)
    oracle = (q0.derivative().derivative() + p.coeff(1) * q0.derivative()
              - RationalFunction.constant(b1) * p.coeff(0).derivative())
    expected = RationalFunction(Polynomial([fe(1, 2)]), P_X ** 3)
    assert oracle == expected
    rep = residual(p, q)
    assert rep.residual == expected
    assert not rep.commutes and rep.local_points == ()


def test_residual_self_pair():
    rng = random.Random(59)
    p = rand_monic2(rng)
    rep = residual(p, p)
    assert rep.commutes


def test_residual_linear_in_constants():
    rng = random.Random(61)
    for _ in range(20):
        p = rand_monic2(rng)
        b = [fe(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(6)]
        ra = residual(p, build_q2(p, spec2(b[0], b[1], b[2]))).residual
        rb = residual(p, build_q2(p, spec2(b[3], b[4], b[5]))).residual
        rsum = residual(p, build_q2(p, spec2(b[0] + b[3], b[1] + b[4],
                                             b[2] + b[5]))).residual
        assert rsum == ra + rb


def test_commuting_pair_compositions_agree():
    p = FAMILIES["heun"].build(dict(a=fe(3), q=fe(0), alpha=fe(2),
                                    beta=fe(1), gamma=fe(0), delta=fe(2)))
    q = build_q1(p, spec1(fe(1), fe(1)))
    rep = residual(p, q)
    assert rep.commutes
    assert compose(p, q) == compose(q, p)


def test_residual_rejects_wide_commutator():
    p = DiffOp([rf(0), rf(0), fe(1)])
    bad = DiffOp.multiplication(RationalFunction.from_polynomial(P_X))
    with pytest.raises(NotSemiCommutingError):
        residual(p, bad)


def test_residual_numeric_local_points():
    # triconfluent-style residual has an irrational cubic root set
    p = FAMILIES["triconfluent"].build(dict(sigma=fe(1), alpha=fe(1),
                                            q=fe(0)))
    q = build_q1(p, spec1(fe(0), fe(1)))
    rep = residual(p, q)
    assert not rep.commutes
    assert rep.residual.is_polynomial()
    assert rep.numeric_points
    for z in rep.numeric_points:
        val = rep.residual.eval_complex(z)
        assert abs(val) < 1e-8


def test_gorder_counterexample():
    report = counterexample_report()
    assert report["P"] == DiffOp([fe(-1), fe(-1), fe(1)])
    assert report["printed_Q"] == DiffOp([
        RationalFunction.from_polynomial(Polynomial([fe(0), fe(1, 2)])),
        rf(1)])
    assert report["corrected_commutator"].is_zero
    assert report["printed_commutator"] == DiffOp([fe(-1, 2), fe(1)])


def test_gorder_agrees_when_p0_vanishes():
    # both recursions integrate with zero constant, so they coincide for
    # decaying p1; a constant part of p1 is only a beta0 relabeling
    rng = random.Random(67)
    for _ in range(10):
        pole = poly_x_minus(fe(rng.randint(2, 5)))
        p1 = RationalFunction(Polynomial([fe(rng.randint(1, 4))]), pole)
        p = DiffOp([rf(0), p1, fe(1)])
        s = spec1(fe(rng.randint(-2, 2)), fe(rng.randint(1, 3)))
        assert gorder_q1(p, s) == build_q1(p, s)
        shifted = DiffOp([rf(0), p1 + rf(3), fe(1)])
        delta = gorder_q1(shifted, s) - build_q1(shifted, s)
        assert delta.is_zero or (delta.order == 0
                                 and delta.coeff(0).is_constant())


def test_gorder_simple_pole_obstruction():
    p = DiffOp([RationalFunction(P_ONE, P_X), rf(0), fe(1)])
    with pytest.raises(GorderObstructionError):
        gorder_q1(p, spec1(fe(0), fe(1)))


def test_degenerate_degree2_spec_flagged():
    s = spec2(fe(1), fe(1), fe(0))
    assert s.degenerate
