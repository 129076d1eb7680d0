"""Closed-form function algebra: differentiation closure and annihilation."""

import cmath
import random

import numpy as np
import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from heunops import catalog as cat
from heunops.field import I, fe, ONE, ZERO
from heunops.poly import (LaurentPolynomial, P_ONE, P_X, Polynomial,
                          poly_x_minus)
from heunops.ratfunc import RF_ZERO, PoleError, RationalFunction, rf
from heunops.diffop import DerivativeFrame, DiffOp, compose
from heunops.funcalg import (BranchPointError, ExpMonomial, FunctionSum,
                             annihilates, apply_op, wronskian_numeric)
from test_diffop import _X, _sympy_apply, _to_sympy_rf, _to_sympy_scalar


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


def test_lone_unit_term_is_kept_as_it_is():
    m = exp_term(fe(2))
    assert FunctionSum([m]).terms[0] is m
    assert FunctionSum([(ONE, m)]).terms[0] is m
    scaled = FunctionSum([(fe(3), m)]).terms[0]
    assert scaled.rat == m.rat * rf(3) and scaled.key() == m.key()


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


def _reference_derivative(f):
    """Reference: the term-by-term derivative formula
    (r' + r*g' + r*rho/x) x^rho e^g, with every step re-merged."""
    out = []
    for t in f.terms:
        r = t.rat
        new = r.derivative() + r * RationalFunction.from_laurent(t.g.derivative())
        if not t.rho.is_zero:
            new = new + r * t.rho * RationalFunction(P_ONE, P_X)
        out.append(ExpMonomial(new, t.rho, t.g))
    return FunctionSum(out)


def _reference_apply(op, f):
    """Reference: sum_k c_k d^k f, differentiating f once per order and
    merging each scaled derivative into the sum."""
    acc, df = FunctionSum(), f
    for k, c in enumerate(op.coeffs):
        if k:
            df = _reference_derivative(df)
        if not c.is_zero:
            acc = acc + FunctionSum([ExpMonomial(t.rat * c, t.rho, t.g)
                                     for t in df.terms])
    return acc


def _ordinary_point(f, ops):
    """A rational t != 0 where every op is regular (no coefficient pole,
    leading coefficient nonzero) and every rational factor of f is finite
    and nonzero."""
    for k in range(1, 50):
        t = fe(k, 7)
        rats = [c for op in ops for c in op.coeffs] + [x.rat for x in f.terms]
        if (all(not c.den.eval(t).is_zero for c in rats)
                and all(not op.coeffs[-1].num.eval(t).is_zero for op in ops)
                and all(not x.rat.num.eval(t).is_zero for x in f.terms)):
            return t
    raise AssertionError("no ordinary point found")


def _perturbed(f, ops):
    """Two perturbations of f that no op annihilates: f e^(x^5), whose
    exponent grows faster than a Heun-class operator lets a solution grow
    (the rate is x^3 at most), and f/(x - t), which has a pole at a point
    where every op is regular, so no solution has one there."""
    t = _ordinary_point(f, ops)
    pole = RationalFunction(P_ONE, Polynomial([-t, ONE]))
    return [FunctionSum([ExpMonomial(x.rat, x.rho,
                                     x.g + LaurentPolynomial({5: ONE}))
                         for x in f.terms]),
            FunctionSum([ExpMonomial(x.rat * pole, x.rho, x.g)
                         for x in f.terms])]


def _catalog_operators(seed, draws):
    for rec in cat.enumerate_cases():
        if rec.kind == "no_nontrivial":
            continue
        for draw in range(draws):
            env = cat.resolve_env(rec, cat.draw_env(rec, seed, draw))
            p, q = cat.build_case(rec, env)
            bases = {label: [cat._basis_function(d, env) for d in descs]
                     for label, descs in (("P", rec.basis_P),
                                          ("Q", rec.basis_Q))}
            yield rec, draw, p, q, compose(q, p), bases


def test_apply_op_matches_reference_on_catalog_bases():
    """apply_op equals the derivative-loop reference, as whole function
    sums, on every catalog basis at seed 0, draws 0-2; cross pairs (each
    factor on the other factor's basis) and, at draw 0, perturbed bases come
    out nonzero."""
    zero = nonzero = 0

    def checked(op, f, *where):
        """apply_op(op, f), checked against the reference; annihilates must
        read the same zero test off the unreduced numerators."""
        got, ref = apply_op(op, f), _reference_apply(op, f)
        assert got == ref, where
        assert annihilates(op, f) == ref.is_zero, where
        return got

    for rec, draw, p, q, l_qp, bases in _catalog_operators(0, 3):
        factors = {"P": p, "Q": q}
        for label, funcs in bases.items():
            other = "Q" if label == "P" else "P"
            for f in funcs:
                # the factor first, then L, on one f: L extends the table
                # the factor started
                for op in (factors[label], l_qp):
                    assert checked(op, f, rec.id, label).is_zero, \
                        (rec.id, label)
                    zero += 1
                got = checked(factors[other], f, rec.id, label, "cross")
                assert not got.is_zero, (rec.id, label, "cross")
                nonzero += 1
                if draw:
                    continue
                for g in _perturbed(f, (factors[label], l_qp)):
                    for op in (factors[label], l_qp):
                        got = checked(op, g, rec.id, label, str(g))
                        assert not got.is_zero, (rec.id, label, str(g))
                        nonzero += 1
    assert zero >= 600 and nonzero >= 700


def test_apply_op_reuses_and_extends_the_cached_chain():
    f = FunctionSum([ExpMonomial(RationalFunction(P_X, Polynomial([ONE, ONE])),
                                 fe(1, 3), LaurentPolynomial({-1: fe(2),
                                                              2: fe(-1, 2)}))])
    d2 = DiffOp([rf(1), rf(0), rf(1)])
    d4 = DiffOp([rf(0), rf(3), rf(0), rf(0), RationalFunction.from_polynomial(P_X)])
    assert apply_op(d2, f) == _reference_apply(d2, f)
    frame, rows = f._tables[0]
    assert len(rows) == 3
    first = list(rows)
    assert apply_op(d4, f) == _reference_apply(d4, f)
    # the same frame and row list, extended in place: rows 0-2 are reused
    assert f._tables[0][0] is frame and f._tables[0][1] is rows
    assert len(rows) == 5
    assert all(a is b for a, b in zip(rows, first))
    assert f.derivative().derivative() == _reference_derivative(
        _reference_derivative(f))
    assert apply_op(DiffOp([]), f).is_zero


#: The one extension each drawn example works over; None is Q itself.
_EXTENSIONS = {"Q": None, "Q(i)": I, "Q(sqrt 2)": fe(2).sqrt()}

_TABLE_ORACLE = settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def fields(draw):
    return _EXTENSIONS[draw(st.sampled_from(sorted(_EXTENSIONS)))]


def _scalars(draw, gen):
    """(rational, scalar) drawers over Q(gen)."""
    def rational():
        return fe(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))

    def scalar():
        c = rational()
        if gen is not None and draw(st.booleans()):
            c = c + rational() * gen
        return c

    return rational, scalar


def _denominator(draw, gen, rational):
    """1, x, x^2, x^2 (x - 1), (x - 1)^2 (x + 2), a random monic quadratic,
    or x - gen: several share the factor x with a pole of the twist."""
    choices = [P_ONE, P_X, P_X ** 2, P_X ** 2 * poly_x_minus(fe(1)),
               poly_x_minus(fe(1)) ** 2 * poly_x_minus(fe(-2)),
               Polynomial([rational(), rational(), 1])]
    if gen is not None:
        choices.append(poly_x_minus(gen))
    return draw(st.sampled_from(choices))


@st.composite
def closed_form_terms(draw, gen):
    """r x^rho e^g over Q(gen): rho is 0, rational, or Gaussian or
    quadratic (rational + rational * gen), and g draws negative exponents,
    so the twist's denominator x^m can share the factor x with r's."""
    rational, scalar = _scalars(draw, gen)
    num = Polynomial([scalar() for _ in range(draw(st.integers(1, 3)))])
    r = RationalFunction(P_ONE if num.is_zero else num,
                         _denominator(draw, gen, rational))
    kind = draw(st.sampled_from(["zero", "rational", "extension"]))
    rho = ZERO if kind == "zero" else rational()
    if kind == "extension" and gen is not None:
        rho = rho + fe(draw(st.integers(1, 3)), draw(st.integers(1, 3))) * gen
    g = LaurentPolynomial({k: scalar() for k in draw(
        st.sets(st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=3))})
    return ExpMonomial(r, rho, g)


def _reduced_chain(t, n):
    """Reference: r_0 = r and r_{k+1} = r_k' + r_k*h, h = rho/x + g', each
    step reduced (the per-step formula the twisted table replaced)."""
    h = RationalFunction.from_laurent(
        t.g.derivative() + LaurentPolynomial({-1: t.rho}))
    chain = [t.rat]
    for _ in range(n):
        chain.append(chain[-1].derivative() + chain[-1] * h)
    return chain


@_TABLE_ORACLE
@given(data=st.data())
def test_twisted_table_matches_the_reduced_chain(backend, data):
    """rows[k] / (d W^k) is the reduced r_k for k <= 4; ExpMonomial's and
    FunctionSum's derivative() read row 1 of the same table."""
    t = data.draw(closed_form_terms(data.draw(fields())))
    frame, rows = t._twisted_table()
    frame.extend(rows, 4)
    chain = _reduced_chain(t, 4)
    for k, r in enumerate(chain):
        assert RationalFunction(rows[k], frame.den(k)) == r, k
    assert t.derivative() == t._with_rat(chain[1])
    f = FunctionSum([t])
    assert f.derivative() == FunctionSum([t._with_rat(chain[1])])


def _product_rows(num, d, n):
    """Reference: the untwisted table as _product built it inline, N_0 = N
    and N_{t+1} = N_t' u - N_t (v + t u') with u = d/gcd(d, d'),
    v = d'/gcd(d, d'); plain derivatives when d = 1."""
    rows = [num]
    if d.degree <= 0:
        for _ in range(n):
            rows.append(rows[-1].derivative())
        return rows, P_ONE
    g = d.gcd(d.derivative())
    u, v = d // g, d.derivative() // g
    for t in range(n):
        rows.append(rows[-1].derivative() * u - rows[-1] * v
                    - rows[-1] * u.derivative() * fe(t))
    return rows, u


@_TABLE_ORACLE
@given(data=st.data())
def test_zero_twist_is_the_product_table(backend, data):
    """With h = 0 (and with no h, as _product builds it) the table is the
    untwisted derivative table over d u^k."""
    t = data.draw(closed_form_terms(data.draw(fields())))
    num, d = t.rat.num, t.rat.den
    ref, u = _product_rows(num, d, 4)
    for frame in (DerivativeFrame(d), DerivativeFrame(d, RF_ZERO)):
        rows = [num]
        frame.extend(rows, 4)
        assert rows == ref
        assert frame.w == u
        assert all(frame.den(k) == d * u ** k for k in range(5))


# A sympy oracle for apply_op: sympy differentiates r exp(s log x + g) with
# a symbol s for rho (a numeric rho would turn exp(rho log x) into x^rho,
# and sympy would not cancel the powers), every term then carries the one
# factor exp(s log x + g), which is divided out by setting it to 1, and the
# rest is a rational function of x and s.  It is evaluated exactly in
# Q(sqrt 2, i) at points that are poles of no drawn denominator.
_S = sp.Symbol("s")
_K = sp.QQ.algebraic_field(sp.sqrt(2), sp.I)
_K_ATOMS = {sp.sqrt(2): _K.from_sympy(sp.sqrt(2)), sp.I: _K.from_sympy(sp.I)}
_POINTS = (fe(17, 19), fe(-23, 29), fe(31, 37), fe(-41, 43))


def _in_k(expr, env):
    """An expression in x, s, sqrt 2 and i, evaluated exactly in _K."""
    if expr in env:
        return env[expr]
    if expr.is_Rational:
        return _K.convert(expr)
    if expr.is_Add or expr.is_Mul:
        parts = [_in_k(a, env) for a in expr.args]
        out = parts[0]
        for v in parts[1:]:
            out = out + v if expr.is_Add else out * v
        return out
    if expr.is_Pow and expr.exp.is_Integer:
        base, k = _in_k(expr.base, env), int(expr.exp)
        return base ** k if k >= 0 else _K.one / base ** -k
    raise ValueError(f"not rational in x and s: {expr}")


@st.composite
def applications(draw):
    """An operator of order 0-3 and one closed-form term over one field."""
    gen = draw(fields())
    rational, scalar = _scalars(draw, gen)
    coeffs = [RationalFunction(
        Polynomial([scalar() for _ in range(draw(st.integers(0, 2)))]),
        _denominator(draw, gen, rational))
        for _ in range(draw(st.integers(1, 4)))]
    return DiffOp(coeffs), draw(closed_form_terms(gen))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=applications())
def test_apply_op_matches_sympy(case):
    op, t = case
    g = sum((_to_sympy_scalar(v) * _X ** k for k, v in t.g.terms.items()),
            sp.Integer(0))
    applied = _sympy_apply(op, _to_sympy_rf(t.rat)
                           * sp.exp(_S * sp.log(_X) + g))
    ratio = applied.replace(sp.exp, lambda _: sp.Integer(1))
    got = apply_op(op, FunctionSum([t]))
    assert annihilates(op, FunctionSum([t])) == got.is_zero
    if got.is_zero:
        rat = RationalFunction.constant(ZERO)
    else:
        (term,) = got.terms
        assert term.key() == t.key()
        rat = term.rat
    env = dict(_K_ATOMS)
    env[_S] = _in_k(_to_sympy_scalar(t.rho), env)
    for x in _POINTS:
        env[_X] = _K.convert(sp.Rational(int(x.ar.numerator),
                                         int(x.ar.denominator)))
        assert _in_k(ratio, env) == _in_k(_to_sympy_rf(rat), env), x
