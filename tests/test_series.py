"""Local series solutions and residual certification."""

import mpmath
import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from heunops import catalog as cat
from heunops.field import FieldElement, fe, Q, ONE, ZERO
from heunops.diffop import DiffOp, compose, over_common_denominator
from heunops.exprs import eval_scalar
from heunops.families import FAMILIES
from heunops.poly import Polynomial, poly_x_minus
from heunops.ratfunc import RationalFunction
from heunops.series import (FrobeniusSolution, IrregularSingularPointError,
                            ResonanceError, _cleared_local_data,
                            _nearest_pole_distance,
                            circle_points, frobenius_series,
                            indicial_roots, series_residual, series_residuals)


def heun_op(gamma=fe(1, 2), delta=fe(1, 2), a=fe(2), q=fe(1, 3),
            alpha=fe(1, 2), beta=fe(1, 3)):
    return FAMILIES["heun"].build(dict(a=a, q=q, alpha=alpha, beta=beta,
                                       gamma=gamma, delta=delta))


# -- oracle: op applied to the truncated series, in sympy ----------------------

_T = sp.Symbol("t", positive=True)


def _sp_rational(c):
    assert c.is_rational
    return sp.Rational(int(c.ar.numerator), int(c.ar.denominator))


def _sp_poly(p, x):
    return sum((_sp_rational(c) * x**k for k, c in enumerate(p.coeffs)),
               sp.Integer(0))


def _lowest_degree(expr):
    return min(m[0] for m in sp.Poly(expr, _T).monoms())


def _image_valuation(op, sol):
    """Order in t of op(S_N) / t^rho at x = x0 + t, where S_N is the
    truncated series t^rho * sum c_k t^k; None when op(S_N) vanishes
    identically.  The recurrence makes it at least N - 1."""
    x = _T + _sp_rational(sol.x0)
    rho = _sp_rational(sol.rho)
    series = _T**rho * sum((_sp_rational(c) * _T**k
                            for k, c in enumerate(sol.coeffs)), sp.Integer(0))
    image = sum((_sp_poly(op.coeff(j).num, x) / _sp_poly(op.coeff(j).den, x)
                 * sp.diff(series, _T, j) for j in range(op.order + 1)),
                sp.Integer(0))
    reduced = sp.cancel(sp.expand(image / _T**rho))
    if reduced == 0:
        return None
    num, den = sp.fraction(reduced)
    return _lowest_degree(num) - _lowest_degree(den)


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
    assert _image_valuation(DiffOp.derivative_op(2), sol) is None


def test_frobenius_remainder_support():
    p = heun_op()
    sol = frobenius_series(p, ZERO, ZERO, 8)
    v = _image_valuation(p, sol)
    assert v is not None and v >= 7


def test_frobenius_second_exponent():
    p = heun_op(gamma=fe(1, 2))
    sol = frobenius_series(p, ZERO, fe(1, 2), 10)
    v = _image_valuation(p, sol)
    assert v is not None and v >= 9


def test_taylor_at_ordinary_point():
    p = FAMILIES["triconfluent"].build(dict(sigma=fe(1, 2), alpha=fe(1, 3),
                                            q=fe(1, 4)))
    sol = frobenius_series(p, ZERO, ZERO, 12)
    v = _image_valuation(p, sol)
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


# -- derivative_values against the former triple loop ---------------------------

def _reference_derivative_values(sol, t, max_order):
    """The falling factorial (rho+k)(rho+k-1)... rebuilt for every k, order
    and point, with powers of t summed forward over FieldElements."""
    out = []
    for j in range(max_order + 1):
        acc = ZERO
        tpow = ONE
        for k, c in enumerate(sol.coeffs):
            factor = ONE
            for i in range(j):
                factor = factor * (sol.rho + k - i)
            acc = acc + c * factor * tpow
            tpow = tpow * t
        out.append(acc)
    return out


_small = st.builds(lambda n, d: fe(n, d).ar, st.integers(-9, 9),
                   st.integers(1, 6))
# a real and a non-real radicand, neither a square in Q(i)
_RADICANDS = [(2, 0), (fe(5, 7).ar, 0), (1, 2)]


@st.composite
def _scalars(draw, kind, d):
    """A rational, Gaussian or Q(sqrt d) element (some parts zero)."""
    ar = draw(_small)
    ai = draw(_small) if kind != "rational" and draw(st.booleans()) else 0
    if kind != "extension" or not draw(st.integers(0, 3)):
        return FieldElement.make(ar, ai)
    return FieldElement.make(ar, ai, draw(_small), draw(_small), d)


@st.composite
def _solutions_and_points(draw):
    kind = draw(st.sampled_from(["rational", "gaussian", "extension"]))
    d = draw(st.sampled_from(_RADICANDS))
    scalar = _scalars(kind, d)
    coeffs = [ONE] + draw(st.lists(scalar, max_size=12))
    if draw(st.booleans()):
        coeffs += [ZERO] * draw(st.integers(1, 3))  # a terminating series
    rho = draw(st.one_of(_scalars("rational", d), scalar))
    sol = FrobeniusSolution(draw(_scalars("rational", d)), rho,
                            tuple(coeffs), len(coeffs) - 1)
    circle = circle_points(Q(1, draw(st.integers(1, 12))), 8)
    points = st.one_of(st.sampled_from(circle), _scalars("gaussian", d),
                       _scalars(kind, d))
    return sol, draw(st.lists(points, min_size=1, max_size=3))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_solutions_and_points(), orders=st.lists(st.integers(0, 4),
                                                     min_size=1, max_size=3))
def test_derivative_values_match_reference(backend, case, orders):
    sol, points = case
    # several points and orders per solution: the cached rows are reused
    # and extended in any order
    for t in points:
        for order in orders:
            assert sol.derivative_values(t, order) == \
                _reference_derivative_values(sol, t, order)


def test_derivative_values_integer_path_at_catalog_shape():
    # rho = 0 and rational c_k at a circle point, as every catalog record
    p = heun_op()
    sol = frobenius_series(p, ZERO, ZERO, 20)
    for t in circle_points(Q(1, 10), 8):
        assert sol.derivative_values(t, 4) == \
            _reference_derivative_values(sol, t, 4)
    # every row stays on the integer path: a rational integer form
    assert all(row._int_form() for row in sol._weight_rows(4))
    half = frobenius_series(p, ZERO, fe(1, 2), 12)
    for t in circle_points(Q(1, 7), 3):
        assert half.derivative_values(t, 3) == \
            _reference_derivative_values(half, t, 3)


# -- frobenius_series against the hypergeometric closed form -------------------

def _sp_gaussian(c):
    assert c.d is None
    return (sp.Rational(int(c.ar.numerator), int(c.ar.denominator))
            + sp.I * sp.Rational(int(c.ai.numerator), int(c.ai.denominator)))


def _hypergeometric_coeffs(a, b, c, n):
    """(a)_k (b)_k / ((c)_k k!) for k = 0..n, by sympy's rising factorial."""
    a, b, c = map(_sp_gaussian, (a, b, c))
    return [sp.rf(a, k) * sp.rf(b, k) / (sp.rf(c, k) * sp.factorial(k))
            for k in range(n + 1)]


@st.composite
def _hypergeometric_params(draw):
    kind = draw(st.sampled_from(["rational", "gaussian"]))
    a, b = draw(_scalars(kind, None)), draw(_scalars(kind, None))
    c = draw(_scalars(kind, None).filter(
        lambda c: not (c.is_rational and c.ar.denominator == 1)))
    return a, b, c


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(params=_hypergeometric_params())
def test_frobenius_matches_hypergeometric_coefficients(backend, params):
    # d^2 + (c - (a+b+1)x)/(x(1-x)) d - ab/(x(1-x)) at x0 = 0: exponents 0
    # and 1-c, and with c not an integer neither recurrence is resonant
    a, b, c = params
    x1mx = Polynomial([ZERO, ONE, -ONE])
    op = DiffOp([RationalFunction(Polynomial([-(a * b)]), x1mx),
                 RationalFunction(Polynomial([c, -(a + b + 1)]), x1mx),
                 ONE])
    n = 8
    for rho, abc in ((ZERO, (a, b, c)),
                     (1 - c, (a - c + 1, b - c + 1, 2 - c))):
        got = frobenius_series(op, ZERO, rho, n).coeffs
        want = _hypergeometric_coeffs(*abc, n)
        assert all(sp.expand(_sp_gaussian(x) - y) == 0
                   for x, y in zip(got, want, strict=True))


def _series_records():
    return [r for r in cat.enumerate_cases() if r.series is not None]


def _series_factors(record, seed=0):
    """(l_op, [monic Q, monic P], x0, rho, radius) as _series_check has them."""
    env = cat.resolve_env(record, cat.draw_env(record, seed, 0))
    overrides = {k: eval_scalar(v, env) for k, v in
                 (record.series.get("overrides") or {}).items()}
    full = cat.resolve_env(record, env, overrides)
    p, q = cat.build_case(record, full)
    factors = [f if f.is_monic() else f.scale(f.leading.inverse())
               for f in (q, p)]
    x0 = eval_scalar(record.series.get("x0", "0"), full)
    rho = eval_scalar(record.series.get("exponent", "0"), full)
    return compose(q, p), factors, x0, rho, cat._series_radius(p, x0)


def test_a_product_form_keeps_singular_points_exact():
    """A product's form can carry a factor that cancels once its
    coefficients are reduced: here x - 1/20 in P's denominator.  The series
    radius and the Frobenius data read the reduced coefficients, so the
    spurious root neither shrinks the radius nor enters the recurrence."""
    p = heun_op()
    h = RationalFunction.from_polynomial(poly_x_minus(fe(1, 20)))
    spurious = compose(DiffOp.multiplication(h),
                       compose(DiffOp.multiplication(h.inverse()), p))
    assert spurious == p
    assert (over_common_denominator(spurious)[1] % h.num).is_zero
    reduced = DiffOp(spurious.coeffs)
    assert cat._series_radius(spurious, ZERO) == Q(1, 10)
    assert cat._series_radius(reduced, ZERO) == Q(1, 10)
    assert _cleared_local_data(spurious, ZERO) == \
        _cleared_local_data(reduced, ZERO)
    assert frobenius_series(spurious, ZERO, ZERO, 8).coeffs == \
        frobenius_series(p, ZERO, ZERO, 8).coeffs


def test_nearest_pole_distance_reads_triple_poles_exactly():
    # at seed 0, draw 0, heun.n2.case1 has a = 1/2 and L's leading
    # denominator x^3 (x - 1)^2 (x - 1/2)^3; confluent.n2.case1 has the
    # triple root 1 (np.roots alone scatters a triple root by about 1e-5)
    for case, distance in (("heun.n2.case1", 0.5),
                           ("confluent.n2.case1", 1.0)):
        l_op, _, x0, _, _ = _series_factors(cat.get_case(case))
        assert x0 == ZERO
        assert _nearest_pole_distance(l_op, ZERO) == distance

def test_truncations_are_prefixes_of_one_recurrence():
    records = _series_records()
    assert len(records) >= 6
    for record in records:
        _, factors, x0, rho, _ = _series_factors(record)
        for factor in factors:
            full = frobenius_series(factor, x0, rho, 40)
            for n in (10, 20):
                sol = frobenius_series(factor, x0, rho, n)
                assert full.coeffs[:n + 1] == sol.coeffs
                assert full.truncated(n) == sol


def _reference_residual(op, sol, radius, points, dps=60):
    """series_residual as it was: one solution, the reference derivative
    values, the operator re-evaluated at every point."""
    worst = mpmath.mpf(0)
    with mpmath.workdps(dps):
        for t in circle_points(radius, points):
            derivs = _reference_derivative_values(sol, t, op.order)
            logt = mpmath.log(t.to_mpc(mpmath.mp))
            acc = mpmath.mpc(0)
            for j in range(op.order + 1):
                c = op.coeff(j)
                if c.is_zero:
                    continue
                cval = c.eval(sol.x0 + t).to_mpc(mpmath.mp)
                scale = mpmath.exp((sol.rho - j).to_mpc(mpmath.mp) * logt)
                acc += cval * derivs[j].to_mpc(mpmath.mp) * scale
            worst = max(worst, abs(acc))
    return float(worst)


def test_shared_residuals_equal_the_one_solution_protocol():
    # the residual floats themselves, not only the verdicts, are unchanged
    record = _series_records()[0]
    l_op, factors, x0, rho, radius = _series_factors(record)
    sols = [frobenius_series(f, x0, rho, 20) for f in factors]
    sols = [s.truncated(n) for s in sols for n in (10, 20)]
    results = series_residuals(l_op, sols, radius, 4)
    assert [r.truncation for r in results] == [10, 20, 10, 20]
    assert [r.max_residual for r in results] == \
        [_reference_residual(l_op, s, radius, 4) for s in sols]
    assert results[1].max_residual == \
        series_residual(l_op, sols[1], radius, 4).max_residual


def test_series_residuals_refuse_mixed_expansion_points():
    p = heun_op()
    sols = [frobenius_series(p, ZERO, ZERO, 8),
            FrobeniusSolution(fe(1, 2), ZERO, (ONE,), 0)]
    with pytest.raises(ValueError, match="different points"):
        series_residuals(compose(p, p), sols, Q(1, 10), 4)
