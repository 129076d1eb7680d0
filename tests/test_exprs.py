import pytest

from heunops.field import fe
from heunops.exprs import (ExprError, eval_exponent, eval_ratfunc,
                           eval_scalar, parse_assignments)
from heunops.poly import LaurentPolynomial


def test_scalar_arithmetic():
    assert eval_scalar("3/4 + 1/4") == fe(1)
    assert eval_scalar("2^3 / 4") == fe(2)
    assert eval_scalar("-(1/2)^2") == fe(-1, 4)
    assert eval_scalar("2^-2") == fe(1, 4)
    assert eval_scalar("i*i") == fe(-1)
    assert eval_scalar("sqrt(9/4)") == fe(3, 2)
    root = eval_scalar("sqrt(2)")
    assert root * root == fe(2)


def test_scalar_env_names():
    env = {"a": fe(2), "beta0": fe(-1)}
    assert eval_scalar("2*a+2", env) == fe(6)
    assert eval_scalar("-(beta0/a)", env) == fe(1, 2)
    with pytest.raises(ExprError):
        eval_scalar("unknown_name")
    with pytest.raises(ExprError):
        eval_scalar("x")


def test_ratfunc_expressions():
    f = eval_ratfunc("1/((x-1)*(x-a))", {"a": fe(3)})
    assert f.eval(fe(2)) == fe(-1)
    g = eval_ratfunc("5")
    assert g.is_constant()


def test_exponent_expressions():
    g = eval_exponent("x^3/3 - 2*x")
    assert g == LaurentPolynomial({3: fe(1, 3), 1: fe(-2)})
    h = eval_exponent("m*x", {"m": fe(-1, 2)})
    assert h == LaurentPolynomial({1: fe(-1, 2)})
    lau = eval_exponent("3/x + x^2")
    assert lau == LaurentPolynomial({-1: fe(3), 2: fe(1)})
    with pytest.raises(ExprError):
        eval_exponent("1/(x-1)")


def test_parse_assignments():
    env = parse_assignments("a=2,q=1/3,alpha=-1/2")
    assert env == {"a": fe(2), "q": fe(1, 3), "alpha": fe(-1, 2)}
    assert parse_assignments("") == {}
    with pytest.raises(ExprError):
        parse_assignments("oops")


def test_syntax_errors():
    for bad in ("1 +", "(1", "2^x", "$"):
        with pytest.raises(ExprError):
            eval_scalar(bad)


def test_parsed_once_and_evaluated_per_environment():
    from heunops.exprs import _parse

    text = "a*x^2 - sqrt(b)/3"
    first = eval_ratfunc(text, {"a": fe(2), "b": fe(9)})
    hits = _parse.cache_info().hits
    second = eval_ratfunc(text, {"a": fe(-1), "b": fe(4)})
    assert _parse.cache_info().hits == hits + 1
    assert first == eval_ratfunc("2*x^2 - 1")
    assert second == eval_ratfunc("-x^2 - 2/3")


def test_errors_keep_their_left_to_right_order():
    # a name or value error ahead of a syntax error is the one raised, as
    # in a single evaluating pass; the cached tree must not reorder them
    cases = [
        (eval_scalar, "unknown + )", ExprError, "unknown name 'unknown'"),
        (eval_scalar, "x + )", ExprError, "'x' not allowed"),
        (eval_ratfunc, "x + )", ExprError, "unexpected token ')'"),
        (eval_scalar, "sqrt(x", ExprError, "'x' not allowed"),
        (eval_ratfunc, "sqrt(x", ExprError, "expected ), got None"),
        (eval_ratfunc, "sqrt(x) + 1", ExprError, "sqrt of a rational function"),
        (eval_scalar, "2^x", ExprError, "exponent must be an integer"),
        (eval_scalar, "1/0 )", ZeroDivisionError, ""),
        (eval_scalar, "1/2 )", ExprError, "trailing input [')']"),
        (eval_scalar, "1 $ zz", ExprError, "bad token at ' $ zz'"),
    ]
    for fn, text, exc, message in cases:
        for _ in range(2):  # the second call reads the cached tree
            with pytest.raises(exc) as info:
                fn(text)
            assert message in str(info.value), (text, str(info.value))
