"""Rational-function arithmetic, partial fractions, antiderivatives, roots."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from heunops.field import FieldElement, Q, fe, ONE, ZERO
from heunops.poly import P_ONE, P_X, Polynomial, poly_x_minus
from heunops.ratfunc import (LogObstructionError, PartialFractionForm,
                             PoleError, RationalFunction,
                             UnexplainedFactorError, antiderivative,
                             partial_fractions, pole_order, poly_roots, rf)


def one_over(poly):
    return RationalFunction(P_ONE, poly)


def rand_rf(rng, max_deg=3):
    num = Polynomial([fe(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(rng.randint(1, max_deg + 1))])
    den = Polynomial([fe(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(rng.randint(1, max_deg))]
                     + [fe(1)])
    if num.is_zero:
        num = P_ONE
    return RationalFunction(num, den)


def test_common_factor_cancellation():
    f = RationalFunction(P_X * P_X - P_ONE, poly_x_minus(ONE))
    assert f == RationalFunction.from_polynomial(P_X + P_ONE)


def test_simple_pole_sum():
    f = one_over(P_X) + one_over(poly_x_minus(ONE))
    want = RationalFunction(Polynomial([fe(-1), fe(2)]),
                            P_X * poly_x_minus(ONE))
    assert f == want


def test_add_sub_roundtrip_200_random():
    rng = random.Random(17)
    for _ in range(200):
        a = rand_rf(rng)
        b = rand_rf(rng)
        assert (a + b) - b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        rf(1) / RationalFunction.from_polynomial(Polynomial([]))


def test_derivative_trivials():
    a = fe(3)
    f = one_over(poly_x_minus(a))
    assert f.derivative() == -one_over(poly_x_minus(a) ** 2)
    cube = RationalFunction.from_polynomial(Polynomial.monomial(3))
    assert cube.derivative() == RationalFunction.from_polynomial(
        Polynomial.monomial(2, fe(3)))


def test_derivative_matches_finite_differences():
    rng = random.Random(23)
    h = 1e-6
    for _ in range(20):
        f = rand_rf(rng)
        df = f.derivative()
        checked = 0
        for px, py in ((0.3, 0.1), (-0.7, 0.4), (1.9, -0.2), (0.05, -0.8),
                       (2.6, 0.9)):
            x = complex(px, py)
            try:
                approx = (f.eval_complex(x + h) - f.eval_complex(x - h)) / (2 * h)
                exact = df.eval_complex(x)
            except PoleError:
                continue
            if abs(exact) > 1e-3:
                assert abs(approx - exact) / abs(exact) < 1e-6
                checked += 1
        assert checked >= 3


def test_derivative_product_rule_200_random():
    rng = random.Random(29)
    for _ in range(200):
        a = rand_rf(rng, 2)
        b = rand_rf(rng, 2)
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_partial_fractions_trivials():
    f = one_over(P_X * poly_x_minus(ONE))
    form = partial_fractions(f, [ZERO, ONE])
    terms = {(str(p), k): c for p, k, c in form.pole_terms}
    assert terms == {("0", 1): fe(-1), ("1", 1): fe(1)}

    g = RationalFunction(Polynomial([fe(-1), fe(2)]), P_X * poly_x_minus(ONE))
    form = partial_fractions(g, [ZERO, ONE])
    terms = {(str(p), k): c for p, k, c in form.pole_terms}
    assert terms == {("0", 1): fe(1), ("1", 1): fe(1)}


def test_partial_fractions_random_roundtrip():
    rng = random.Random(31)
    pole_pool = [fe(0), fe(1), fe(-1), fe(2), fe(1, 2)]
    for _ in range(50):
        terms = []
        total = RationalFunction.from_polynomial(
            Polynomial([fe(rng.randint(-2, 2))]))
        chosen = rng.sample(pole_pool, rng.randint(1, 3))
        for p in chosen:
            order = rng.randint(1, 3)
            coeff = fe(rng.randint(1, 5), rng.randint(1, 3))
            terms.append((p, order, coeff))
            total = total + RationalFunction(
                Polynomial([coeff]), poly_x_minus(p) ** order)
        form = partial_fractions(total, pole_pool)
        assert form.reassemble() == total
        got = {(str(p), k): c for p, k, c in form.pole_terms}
        want = {(str(p), k): c for p, k, c in terms}
        assert got == want


def test_partial_fractions_unexplained_factor():
    f = one_over(P_X * poly_x_minus(fe(5)))
    with pytest.raises(UnexplainedFactorError):
        partial_fractions(f, [ZERO])


def test_partial_fractions_higher_order_pole():
    f = RationalFunction(Polynomial([fe(2), fe(1)]),
                         P_X ** 3 * poly_x_minus(ONE))
    form = partial_fractions(f, [ZERO, ONE])
    assert form.reassemble() == f


def _series_inverse(coeffs, n):
    """First n coefficients of 1 / (c0 + c1 t + ...), c0 != 0."""
    inv0 = coeffs[0].inverse()
    out = [inv0]
    for k in range(1, n):
        acc = ZERO
        for j in range(1, k + 1):
            cj = coeffs[j] if j < len(coeffs) else ZERO
            acc = acc + cj * out[k - j]
        out.append(-inv0 * acc)
    return out


def _reference_partial_fractions(f, poles):
    """partial_fractions as it was: one deflation per distinct pole, then a
    division of f.den by (x - p)^m and a shift of the quotient per pole."""
    poly_part, rem_num = f.num.divmod(f.den)
    terms = []
    den = f.den
    seen = set()
    mults = []
    for p in poles:
        p = FieldElement._coerce(p)
        if p in seen:
            continue
        seen.add(p)
        den, m = den.deflate(p)
        if m:
            mults.append((p, m))
    if den.degree > 0:
        raise UnexplainedFactorError(den)
    for p, m in mults:
        rest = f.den // (poly_x_minus(p) ** m)
        num_s = rem_num.shift(p)
        rest_s = rest.shift(p)
        inv = _series_inverse(list(rest_s.coeffs) + [ZERO] * m, m)
        for j in range(1, m + 1):
            order_coeff = ZERO
            for t in range(m - j + 1):
                c = num_s.coeff(t)
                if not c.is_zero:
                    order_coeff = order_coeff + c * inv[m - j - t]
            if not order_coeff.is_zero:
                terms.append((p, j, order_coeff))
    return PartialFractionForm(poly_part, tuple(terms))


@st.composite
def partial_fraction_cases(draw):
    """(f, poles): f has poles of order 0-3 at rational and Gaussian points,
    sometimes times x^2 + 2.  The pole list names the poles in any order,
    repeats some, adds points that are not poles, and sometimes leaves one
    out, so that a factor is unexplained."""
    def scalar():
        return fe(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))

    pool = draw(st.permutations(
        [fe(0), fe(1), fe(-1, 2), fe(3, 2), fe(1) + fe(-1).sqrt(),
         fe(-1).sqrt() * fe(1, 2)]))
    den = P_ONE
    poles = []
    for p in pool:
        m = draw(st.integers(0, 3))
        den = den * poly_x_minus(p) ** m
        if m or draw(st.booleans()):
            poles += [p] * draw(st.integers(1, 2))
    if poles and draw(st.integers(0, 4)) == 0:
        poles.pop(draw(st.integers(0, len(poles) - 1)))
    if draw(st.integers(0, 4)) == 0:
        den = den * Polynomial([fe(2), ZERO, ONE])
    num = Polynomial([scalar() for _ in range(draw(st.integers(0, 8)))])
    return RationalFunction(num, den), poles


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=partial_fraction_cases())
def test_partial_fractions_matches_the_deflating_loop(backend, case):
    """One shift per pole gives the multiplicities, the terms and the
    unexplained factor that deflating pole by pole gave."""
    f, poles = case
    try:
        want = _reference_partial_fractions(f, poles)
    except UnexplainedFactorError as err:
        with pytest.raises(UnexplainedFactorError) as got:
            partial_fractions(f, poles)
        assert got.value.factor == err.factor
        return
    got = partial_fractions(f, poles)
    assert got.polynomial_part == want.polynomial_part
    assert got.pole_terms == want.pole_terms
    assert got.reassemble() == f


def test_antiderivative_pure_rational():
    f = one_over(P_X ** 2)
    assert antiderivative(f) == -one_over(P_X)
    g = RationalFunction.from_polynomial(Polynomial([fe(1), fe(2)]))
    ag = antiderivative(g)
    assert ag.derivative() == g


def test_antiderivative_random_roundtrip():
    rng = random.Random(37)
    for _ in range(40):
        # build an integrand as derivative of a random rational function
        f = rand_rf(rng)
        target = f.derivative()
        back = antiderivative(target)
        assert back.derivative() == target


def test_antiderivative_log_obstruction():
    with pytest.raises(LogObstructionError):
        antiderivative(one_over(P_X))
    with pytest.raises(LogObstructionError):
        antiderivative(one_over(P_X ** 2 * poly_x_minus(ONE)))


def test_pole_order_at_poles_and_regular_points():
    f = one_over(P_X ** 2 * poly_x_minus(ONE))
    assert pole_order(f, ZERO) == 2
    assert pole_order(f, ONE) == 1
    assert pole_order(f, fe(2)) == 0


def test_poly_roots_exact_and_numeric():
    p = P_X ** 2 - Polynomial([fe(1)])  # roots 1, -1
    exact, numeric = poly_roots(p)
    assert not numeric
    assert {str(r) for r, _ in exact} == {"1", "-1"}
    # double root
    p2 = poly_x_minus(fe(1, 2)) ** 2
    exact, numeric = poly_roots(p2)
    assert exact == [(fe(1, 2), 2)] and not numeric
    # irrational roots stay numeric
    p3 = P_X ** 2 - Polynomial([fe(2)])
    exact, numeric = poly_roots(p3)
    assert not exact and len(numeric) == 2
    assert sorted(round(abs(z), 6) for z in numeric) == [1.414214, 1.414214]


def test_poly_roots_candidate_matching_an_extracted_root():
    # 3/4's coarsest candidate is 1, which is extracted first; the search
    # must go on to the finer candidates instead of giving up on 3/4
    p = P_X * poly_x_minus(ONE) * poly_x_minus(fe(3, 4))
    exact, numeric = poly_roots(p)
    assert not numeric
    assert sorted(exact, key=lambda e: e[0].ar) == [
        (ZERO, 1), (fe(3, 4), 1), (ONE, 1)]


def test_subst_inverse():
    f = one_over(poly_x_minus(fe(2)))
    g = f.subst_inverse()  # 1/(1/x - 2) = x/(1-2x)
    x = 0.37
    assert abs(g.eval_complex(x) - 1 / (1 / x - 2)) < 1e-12


# -- poly_roots against the candidate loop it replaced ------------------------

def _reference_reconstruct_rational(value):
    """One Fraction.limit_denominator call per denominator limit."""
    out = []
    frac = Fraction(value)
    for limit in (1, 2, 4, 8, 16, 64, 4096, 10 ** 6, 10 ** 9):
        cand = frac.limit_denominator(limit)
        if not out or cand != out[-1]:
            out.append(cand)
    return out


def _reference_poly_roots(p):
    """The continued-fraction search poly_roots used before the rational
    root theorem, as a plain loop: a FieldElement candidate for every pair
    of reconstructed parts within 1e-6 of a numeric root of p, certified by
    Polynomial.eval.  It misses roots that np.roots scatters by more than
    1e-6, such as triple ones, so it is a lower bound."""
    numeric_roots = np.roots([c.to_complex() for c in reversed(p.coeffs)])
    exact, remaining = [], p
    for z in numeric_roots:
        for re_c in _reference_reconstruct_rational(float(z.real)):
            for im_c in _reference_reconstruct_rational(float(z.imag)):
                cand = FieldElement.make(Q(re_c.numerator, re_c.denominator),
                                         Q(im_c.numerator, im_c.denominator))
                if any(cand == e for e, _ in exact):
                    continue
                if abs(cand.to_complex() - z) > 1e-6:
                    continue
                if remaining.eval(cand).is_zero:
                    mult = 0
                    while (remaining.degree >= 1
                           and remaining.eval(cand).is_zero):
                        remaining = remaining // poly_x_minus(cand)
                        mult += 1
                    exact.append((cand, mult))
                    break
            else:
                continue
            break
    numeric = []
    if remaining.degree >= 1:
        numeric = [complex(z) for z in np.roots(
            [c.to_complex() for c in reversed(remaining.coeffs)])]
    return exact, numeric


@st.composite
def planted_root_polys(draw):
    """(p, planted): a product of linear factors at Gaussian rationals with
    denominators up to 16, of multiplicity 1 to 3, times near misses: x^2 - r
    with r just above (k/q)^2, whose irrational roots lie within 1e-6 of
    k/q.  planted maps each root to its multiplicity."""
    def part():
        return fe(draw(st.integers(-20, 20)), draw(st.integers(1, 16))).ar

    p = Polynomial([fe(draw(st.integers(1, 6)), draw(st.integers(1, 6)))])
    planted = {}
    for _ in range(draw(st.integers(0, 3))):
        root = FieldElement.make(part(), part() if draw(st.booleans()) else 0)
        mult = draw(st.integers(1, 3))
        p = p * poly_x_minus(root) ** mult
        planted[root] = planted.get(root, 0) + mult
    for _ in range(draw(st.integers(0, 1))):
        k, q = draw(st.integers(1, 9)), draw(st.integers(1, 16))
        r = fe(k * k, q * q) + fe(1, 10 ** draw(st.integers(6, 8)))
        p = p * Polynomial([-r, ZERO, ONE])
    return p, planted


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=planted_root_polys())
def test_poly_roots_finds_every_planted_root(backend, case):
    """Under the backend fixture; its mpq run is skipped where gmpy2 is not
    installed."""
    p, planted = case
    exact, numeric = poly_roots(p)
    assert len(exact) == len(planted) and dict(exact) == planted
    assert len(numeric) == p.degree - sum(planted.values())
    reference = _reference_poly_roots(p)
    assert set(reference[0]) <= set(exact)
    if all(mult == 1 for mult in planted.values()):
        assert (exact, numeric) == reference
    product = Polynomial([p.leading])
    for root, mult in exact:
        product = product * poly_x_minus(root) ** mult
    assert (p % product).is_zero


def test_poly_roots_triple_roots():
    half = fe(1, 2)
    assert poly_roots(poly_x_minus(half) ** 3) == ([(half, 3)], [])
    p = P_X ** 3 * poly_x_minus(ONE) ** 2 * poly_x_minus(half) ** 3
    exact, numeric = poly_roots(p)
    assert not numeric
    assert sorted(exact, key=lambda e: e[0].ar) == [
        (ZERO, 3), (half, 3), (ONE, 2)]


def test_poly_roots_refines_a_large_denominator():
    # L = 2*10^20 and about 10^21: a double-precision root no longer pins
    # round(L*z), so z is refined by Newton's method before rounding (the
    # second case needs it: unrefined, 123456789/1000000007 stays numeric)
    for root, big in (((1, 2), 10 ** 20), ((123456789, 1000000007), 10 ** 12)):
        p = poly_x_minus(fe(*root)) * Polynomial([fe(-1), fe(big)])
        exact, numeric = poly_roots(p)
        assert not numeric
        assert sorted(exact, key=lambda e: e[0].ar) == [
            (fe(1, big), 1), (fe(*root), 1)]
