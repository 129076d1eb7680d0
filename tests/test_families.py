"""Family constructors and singularity classification."""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from heunops.field import fe, ONE, ZERO
from heunops.poly import P_X, Polynomial, poly_x_minus
from heunops.ratfunc import RationalFunction, partial_fractions, rf
from heunops.diffop import DiffOp
from heunops.families import (FAMILIES, INFINITY, IRREGULAR_SINGULAR,
                              PARAM_NAMES, REGULAR_SINGULAR, ParameterError,
                              classify_singularities)


def build(family, **values):
    return FAMILIES[family].build(values)


def test_heun_vanishing_accessory_product():
    p = build("heun", a=fe(2), q=fe(0), alpha=fe(0), beta=fe(1), gamma=fe(0),
              delta=fe(0))
    assert p.is_monic() and p.order == 2
    assert p.coeff(1) == RationalFunction(Polynomial([fe(2)]),
                                          poly_x_minus(fe(2)))
    assert p.coeff(0).is_zero


def test_heun_pole_structure_matches_parameter_weights():
    given = dict(a=fe(3), q=fe(1, 3), alpha=fe(1, 2), beta=fe(1, 3),
                 gamma=fe(1, 2), delta=fe(1, 4))
    params = FAMILIES["heun"].values(given)
    p = build("heun", **given)
    form = partial_fractions(p.coeff(1), [ZERO, ONE, fe(3)])
    weights = {str(pole): c for pole, k, c in form.pole_terms if k == 1}
    assert weights == {"0": params["gamma"], "1": params["delta"],
                       "3": params["epsilon"]}
    assert form.polynomial_part.is_zero
    # p0 has only simple poles at 0, 1, a
    form0 = partial_fractions(p.coeff(0), [ZERO, ONE, fe(3)])
    assert form0.polynomial_part.is_zero
    assert all(k == 1 for _, k, _ in form0.pole_terms)


def test_epsilon_recomputed_not_stored():
    values = dict(a=fe(2), q=fe(0), alpha=fe(1), beta=fe(1), gamma=fe(1, 2),
                  delta=fe(1, 2))
    assert FAMILIES["heun"].values(values)["epsilon"] == fe(2)
    assert "epsilon" not in PARAM_NAMES["heun"]
    with pytest.raises(ParameterError, match="unexpected \\['epsilon'\\]"):
        build("heun", epsilon=fe(5), **values)


def test_heun_rejects_merged_singularities():
    for bad_a in (fe(0), fe(1)):
        with pytest.raises(ParameterError, match="confluent"):
            build("heun", a=bad_a, q=fe(0), alpha=fe(1), beta=fe(1),
                  gamma=fe(1), delta=fe(1))


def test_triconfluent_coefficients():
    sigma, alpha, q = fe(2), fe(1, 2), fe(1, 3)
    p = build("triconfluent", sigma=sigma, alpha=alpha, q=q)
    assert p.coeff(1) == RationalFunction.from_polynomial(
        Polynomial([sigma, ZERO, fe(-1)]))
    assert p.coeff(0) == RationalFunction.from_polynomial(
        Polynomial([-q, alpha]))


def test_biconfluent_degenerate_coefficients():
    alpha = fe(3, 4)
    p = build("biconfluent", tau=fe(0), nu=fe(0), alpha=alpha, q=fe(0))
    assert p.coeff(1) == rf(-1)
    assert p.coeff(0) == RationalFunction.constant(-alpha)


def test_confluent_and_reduced_confluent_shapes():
    p = build("confluent", p=fe(2), q=fe(1), alpha=fe(1, 2), gamma=fe(1),
              delta=fe(1))
    num = Polynomial([fe(-1), fe(1)])  # p*alpha*x - q with p=2, alpha=1/2
    assert p.coeff(0) == RationalFunction(num, P_X * poly_x_minus(ONE))
    r = build("reduced_confluent", kappa=fe(2), gamma=fe(1), delta=fe(1),
              q=fe(3))
    assert r.coeff(0) == RationalFunction(Polynomial([fe(3), fe(2)]),
                                          P_X * poly_x_minus(ONE))


def test_reduced_triconfluent_quartic():
    p = build("reduced_triconfluent", A0=fe(1), A1=fe(2), A2=fe(3))
    assert p.coeff(1).is_zero
    assert p.coeff(0) == RationalFunction.from_polynomial(
        Polynomial([fe(1), fe(2), fe(3), ZERO, fe(-9, 4)]))


def test_double_confluent_double_pole():
    p = build("double_confluent", tau=fe(1), nu=fe(2), alpha=fe(1),
              q=fe(1))
    from heunops.ratfunc import pole_order
    assert pole_order(p.coeff(0), ZERO) == 2
    assert pole_order(p.coeff(1), ZERO) == 2


def test_every_family_builds_monic_order_two():
    values = {
        "heun": dict(a=fe(2), q=fe(1, 3), alpha=fe(1, 2), beta=fe(1, 3),
                     gamma=fe(1, 2), delta=fe(1, 4)),
        "confluent": dict(p=fe(1), q=fe(1, 3), alpha=fe(1, 2),
                          gamma=fe(1, 2), delta=fe(1, 4)),
        "reduced_confluent": dict(kappa=fe(1), gamma=fe(1, 2),
                                  delta=fe(1, 4), q=fe(1, 3)),
        "biconfluent": dict(tau=fe(1, 2), nu=fe(1, 3), alpha=fe(1, 4),
                            q=fe(1, 5)),
        "double_confluent": dict(tau=fe(1, 2), nu=fe(1, 3), alpha=fe(1, 4),
                                 q=fe(1, 5)),
        "triconfluent": dict(sigma=fe(1, 2), alpha=fe(1, 3), q=fe(1, 4)),
        "reduced_triconfluent": dict(A0=fe(1), A1=fe(2), A2=fe(3)),
    }
    assert list(values) == list(FAMILIES)
    for family, given in values.items():
        op = build(family, **given)
        assert op.order == 2 and op.is_monic(), family
        assert FAMILIES[family].name == family
        assert PARAM_NAMES[family] == tuple(given)


def test_build_validates_parameter_names():
    with pytest.raises(ParameterError, match="unknown family"):
        FAMILIES["nope"]
    with pytest.raises(ParameterError, match="missing"):
        build("heun", a=fe(2))
    with pytest.raises(ParameterError, match="not an exact scalar"):
        build("triconfluent", sigma=0.5, alpha=fe(1), q=fe(1))


def test_classify_generic_heun():
    p = build("heun", a=fe(3), q=fe(1, 3), alpha=fe(1, 2), beta=fe(1, 3),
              gamma=fe(1, 2), delta=fe(1, 2))
    got = {str(loc): kind for loc, kind in classify_singularities(p)}
    assert got == {"0": REGULAR_SINGULAR, "1": REGULAR_SINGULAR,
                   "3": REGULAR_SINGULAR, "infinity": REGULAR_SINGULAR}


def test_classify_triconfluent():
    p = build("triconfluent", sigma=fe(1), alpha=fe(1), q=fe(0))
    assert classify_singularities(p) == [(INFINITY, IRREGULAR_SINGULAR)]


def test_classify_degree2_companion_irregular_at_infinity():
    # the degree-2 companion of a generic four-point operator keeps the
    # finite points regular but makes infinity irregular
    p = build("heun", a=fe(2), q=fe(1, 3), alpha=fe(1, 2), beta=fe(1, 3),
              gamma=fe(1, 2), delta=fe(1, 2))
    companion = p.scale(fe(1)) + DiffOp([rf(-1)])  # P + mu with mu = -1
    got = {str(loc): kind for loc, kind in classify_singularities(companion)}
    assert got == {"0": REGULAR_SINGULAR, "1": REGULAR_SINGULAR,
                   "2": REGULAR_SINGULAR, "infinity": IRREGULAR_SINGULAR}


def test_classify_biconfluent_irregular_origin():
    p = build("biconfluent", tau=fe(1), nu=fe(1, 2), alpha=fe(1), q=fe(1))
    got = {str(loc): kind for loc, kind in classify_singularities(p)}
    assert got["0"] == IRREGULAR_SINGULAR
    assert got["infinity"] == IRREGULAR_SINGULAR


# The standard coefficient tables (Ronveaux ed., Heun's Differential
# Equations, OUP 1995), written here independently of the family table:
# family -> v -> (p1, p0) as sympy expressions in x.
_X = sp.Symbol("x")
_ORACLE = {
    "heun": lambda v: (
        v["gamma"] / _X + v["delta"] / (_X - 1)
        + (v["alpha"] + v["beta"] + 1 - v["delta"] - v["gamma"])
        / (_X - v["a"]),
        (v["alpha"] * v["beta"] * _X - v["q"])
        / (_X * (_X - 1) * (_X - v["a"]))),
    "confluent": lambda v: (
        v["p"] + v["gamma"] / _X + v["delta"] / (_X - 1),
        (v["p"] * v["alpha"] * _X - v["q"]) / (_X * (_X - 1))),
    "reduced_confluent": lambda v: (
        v["gamma"] / _X + v["delta"] / (_X - 1),
        (v["kappa"] * _X + v["q"]) / (_X * (_X - 1))),
    "biconfluent": lambda v: (
        v["tau"] / _X + v["nu"] / _X**2 - 1,
        -(v["alpha"] * _X + v["q"]) / _X),
    "double_confluent": lambda v: (
        v["tau"] / _X + v["nu"] / _X**2 - 1,
        -(v["alpha"] * _X + v["q"]) / _X**2),
    "triconfluent": lambda v: (
        v["sigma"] - _X**2,
        v["alpha"] * _X - v["q"]),
    "reduced_triconfluent": lambda v: (
        sp.Integer(0),
        v["A0"] + v["A1"] * _X + v["A2"] * _X**2 - sp.Rational(9, 4) * _X**4),
}

_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def _sympy_rf(f):
    def poly(p):
        assert all(c.is_rational for c in p.coeffs)
        return sum(sp.Rational(int(c.ar.numerator), int(c.ar.denominator))
                   * _X**k for k, c in enumerate(p.coeffs))
    return poly(f.num) / poly(f.den)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_family_table_matches_sympy_oracle(family, data):
    names = PARAM_NAMES[family]
    drawn = {n: data.draw(_rationals, label=n) for n in names}
    if family == "heun":
        drawn["a"] = data.draw(_rationals.filter(lambda a: a not in (0, 1)),
                               label="a")
    op = build(family, **{n: fe(v.numerator, v.denominator)
                          for n, v in drawn.items()})
    p1, p0 = _ORACLE[family]({n: sp.Rational(v.numerator, v.denominator)
                              for n, v in drawn.items()})
    assert op.order == 2 and op.is_monic()
    assert sp.cancel(_sympy_rf(op.coeff(1)) - p1) == 0
    assert sp.cancel(_sympy_rf(op.coeff(0)) - p0) == 0
