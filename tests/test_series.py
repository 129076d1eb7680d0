"""Local series solutions and residual certification."""

import pytest

from heunops.field import fe, Q, ONE, ZERO
from heunops.diffop import DiffOp, compose
from heunops.families import FAMILIES
from heunops.series import (FrobeniusSolution, IrregularSingularPointError,
                            ResonanceError, circle_points, frobenius_series,
                            indicial_roots, series_residual,
                            truncation_remainder_valuation)


def heun_op(gamma=fe(1, 2), delta=fe(1, 2), a=fe(2), q=fe(1, 3),
            alpha=fe(1, 2), beta=fe(1, 3)):
    return FAMILIES["heun"].build(dict(a=a, q=q, alpha=alpha, beta=beta,
                                       gamma=gamma, delta=delta))


def test_indicial_roots_at_each_finite_point():
    gamma, delta = fe(1, 3), fe(1, 4)
    p = heun_op(gamma=gamma, delta=delta)
    r0 = set(indicial_roots(p, ZERO))
    assert r0 == {ZERO, ONE - gamma}
    r1 = set(indicial_roots(p, ONE))
    assert r1 == {ZERO, ONE - delta}
    # at x = a the exponents come from the recomputed pole weight
    params = FAMILIES["heun"].values(dict(
        a=fe(2), q=fe(1, 3), alpha=fe(1, 2), beta=fe(1, 3), gamma=gamma,
        delta=delta))
    ra = set(indicial_roots(p, fe(2)))
    assert ra == {ZERO, ONE - params["epsilon"]}


def test_indicial_roots_ordinary_point():
    assert set(indicial_roots(DiffOp.derivative_op(2), fe(5))) == {ZERO, ONE}
    p = FAMILIES["triconfluent"].build(dict(sigma=fe(1), alpha=fe(1, 2),
                                            q=fe(1, 3)))
    assert set(indicial_roots(p, ZERO)) == {ZERO, ONE}


def test_indicial_irregular_point_refused():
    p = FAMILIES["biconfluent"].build(dict(tau=fe(1), nu=fe(1), alpha=fe(1),
                                           q=fe(1)))
    with pytest.raises(IrregularSingularPointError):
        indicial_roots(p, ZERO)


def test_frobenius_constant_solution():
    sol = frobenius_series(DiffOp.derivative_op(2), ZERO, ZERO, 8)
    assert sol.coeffs[0] == ONE
    assert all(c.is_zero for c in sol.coeffs[1:])
    assert truncation_remainder_valuation(DiffOp.derivative_op(2), sol) is None


def test_frobenius_remainder_support():
    p = heun_op()
    sol = frobenius_series(p, ZERO, ZERO, 8)
    v = truncation_remainder_valuation(p, sol)
    assert v is not None and v >= 7


def test_frobenius_second_exponent():
    p = heun_op(gamma=fe(1, 2))
    sol = frobenius_series(p, ZERO, fe(1, 2), 10)
    assert truncation_remainder_valuation(p, sol) >= 9


def test_taylor_at_ordinary_point():
    p = FAMILIES["triconfluent"].build(dict(sigma=fe(1, 2), alpha=fe(1, 3),
                                            q=fe(1, 4)))
    sol = frobenius_series(p, ZERO, ZERO, 12)
    v = truncation_remainder_valuation(p, sol)
    assert v is not None and v >= 11


def test_resonance_refused():
    p = heun_op(gamma=fe(-1))  # exponents {0, 2}
    with pytest.raises(ResonanceError):
        frobenius_series(p, ZERO, ZERO, 8)


def test_wrong_exponent_rejected():
    p = heun_op()
    with pytest.raises(ValueError, match="indicial"):
        frobenius_series(p, ZERO, fe(1, 3), 8)


def test_circle_points_exact_radius():
    pts = circle_points(Q(1, 10), 8)
    assert len(set(map(str, pts))) == 8
    for p in pts:
        norm = p.ar * p.ar + p.ai * p.ai
        assert norm == Q(1, 100)


def test_series_residual_decays_and_certifies():
    p = heun_op()
    l_op = compose(p, p)
    residuals = []
    for n in (10, 20, 40):
        sol = frobenius_series(p, ZERO, ZERO, n)
        res = series_residual(l_op, sol, Q(1, 10), 8)
        residuals.append(res.max_residual)
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] < 1e-10


def test_series_residual_radius_guard():
    p = heun_op()
    sol = frobenius_series(p, ZERO, ZERO, 10)
    with pytest.raises(ValueError, match="radius"):
        series_residual(compose(p, p), sol, Q(3, 2), 4)


def test_nonsolution_series_has_large_residual():
    p = heun_op()
    fake = FrobeniusSolution(ZERO, ZERO,
                             tuple([ONE] + [fe(1, k + 1) for k in range(20)]),
                             20)
    res = series_residual(p, fake, Q(1, 10), 4)
    assert res.max_residual > 1e-6
