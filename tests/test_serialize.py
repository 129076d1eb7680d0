"""JSON round trips for every wire type."""

import json
import random

from heunops.field import FieldElement, fe
from heunops.poly import Polynomial
from heunops.ratfunc import RationalFunction
from heunops import serialize as ser
from heunops.semicommute import SemiCommuteSpec, build_q1, residual
from heunops.families import FAMILIES


def test_rational_strings():
    assert ser.encode_rational(fe(3, 2).ar) == "3/2"
    assert ser.encode_rational(fe(4).ar) == "4"
    assert ser.decode_rational("-7/3") == fe(-7, 3).ar


def test_field_element_roundtrip():
    values = [fe(0), fe(-2, 5), fe(1) + fe(1, 3) * FieldElement(0, 1),
              fe(5).sqrt(), (fe(1) + fe(2).sqrt()) * fe(1, 3)]
    for v in values:
        data = json.loads(json.dumps(ser.encode_field_element(v)))
        assert ser.decode_field_element(data) == v


def test_field_element_compact_string_form():
    assert ser.decode_field_element("5/2") == fe(5, 2)


def test_polynomial_and_ratfunc_roundtrip():
    rng = random.Random(71)
    for _ in range(20):
        num = Polynomial([fe(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(rng.randint(1, 5))])
        den = Polynomial([fe(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(rng.randint(0, 3))] + [fe(1)])
        if num.is_zero:
            continue
        f = RationalFunction(num, den)
        data = json.loads(json.dumps(ser.encode_rational_function(f)))
        assert ser.decode_rational_function(data) == f


def test_diffop_roundtrip():
    p = FAMILIES["heun"].build(dict(a=fe(2), q=fe(1, 3), alpha=fe(1, 2),
                                    beta=fe(1, 3), gamma=fe(1, 2),
                                    delta=fe(1, 2)))
    data = json.loads(json.dumps(ser.encode_diffop(p)))
    assert ser.decode_diffop(data) == p


def test_residual_report_encoding():
    p = FAMILIES["heun"].build(dict(a=fe(2), q=fe(0), alpha=fe(0),
                                    beta=fe(0), gamma=fe(1), delta=fe(0)))
    rep = residual(p, build_q1(p, SemiCommuteSpec(degree=1, beta0=fe(0),
                                                  beta1=fe(1))))
    data = ser.encode_residual_report(rep)
    assert data["commutes"] is False
    decoded = ser.decode_rational_function(data["residual"])
    assert decoded == rep.residual


def test_numeric_point_tagged_approx():
    point = complex(1.25, -0.5)
    data = ser.encode_local_point(point)
    assert data == {"approx": True, "re": 1.25, "im": -0.5}
