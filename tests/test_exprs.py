import json
import re
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from heunops import exprs
from heunops.catalog import _printed_q_expressions
from heunops.families import FAMILIES
from heunops.field import FieldElement, fe
from heunops.exprs import (ExprError, eval_exponent, eval_ratfunc,
                           eval_scalar, parse_assignments)
from heunops.poly import LaurentPolynomial
from heunops.ratfunc import RationalFunction


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
    from heunops.exprs import _parse, _template

    text = "a*x^2 - sqrt(b)/3"
    _template.cache_clear()
    first = eval_ratfunc(text, {"a": fe(2), "b": fe(9)})
    misses = _parse.cache_info().misses
    assert _template.cache_info()[:2] == (0, 1)  # (hits, misses)
    second = eval_ratfunc(text, {"a": fe(-1), "b": fe(4)})
    assert _parse.cache_info().misses == misses
    assert _template.cache_info()[:2] == (1, 1)
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


# -- templates against the tree walk --------------------------------------------

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.function_scoped_fixture,
                                            HealthCheck.too_slow])


def _walk_ratfunc(text, env):
    """eval_ratfunc as a plain walk of the tree."""
    value = exprs._eval(exprs._parse(text), env, True)
    if isinstance(value, FieldElement):
        return RationalFunction.constant(value)
    return value


def _walk_exponent(text, env):
    value = _walk_ratfunc(text, env)
    num, den = value.num, value.den
    if any(not c.is_zero for c in den.coeffs[:-1]):
        raise ExprError(f"exponent {text!r} is not a Laurent polynomial")
    return LaurentPolynomial({m - den.degree: c
                              for m, c in enumerate(num.coeffs)})


def _outcome(fn, text, env):
    try:
        return "value", fn(text, env)
    except Exception as err:  # the type and message are compared
        return type(err), str(err)


def _assert_as_walked(text, env):
    assert _outcome(eval_ratfunc, text, env) == \
        _outcome(_walk_ratfunc, text, env), text
    assert _outcome(eval_exponent, text, env) == \
        _outcome(_walk_exponent, text, env), text


def _catalog_texts():
    """Every expression in x of catalog.json, the family table and the
    printed companion tables."""
    data = json.loads(resources.files("heunops").joinpath(
        "data/catalog.json").read_text(encoding="utf-8"))
    found = set()

    def visit(node):
        if isinstance(node, dict):
            for v in node.values():
                visit(v)
        elif isinstance(node, list):
            for v in node:
                visit(v)
        elif isinstance(node, str) and re.search(r"\bx\b", node):
            found.add(node)

    visit(data["cases"])
    for row in FAMILIES.values():
        found |= {row.p1, row.p0}
    for family in FAMILIES:
        for degree in (1, 2):
            found |= set(_printed_q_expressions(family, degree).values())
    # notes are not expressions
    return sorted(t for t in found if exprs._parse(t)[0] != "fail"
                  and "x" in exprs._names(exprs._parse(t)))


CATALOG_TEXTS = _catalog_texts()


def _names(text):
    return sorted({tok for tok in re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text)
                   if tok not in ("x", "i", "I", "sqrt")})


@st.composite
def scalars(draw):
    """Small values over Q, Q(i) or Q(sqrt 2), zero among them."""
    def q():
        return fe(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))

    kind = draw(st.sampled_from(["zero", "rational", "gaussian", "sqrt2"]))
    if kind == "zero":
        return fe(0)
    if kind == "gaussian":
        return q() + q() * FieldElement(0, 1)
    if kind == "sqrt2":
        return q() + q() * fe(2).sqrt()
    return q()


def test_catalog_texts_are_templated():
    assert len(CATALOG_TEXTS) > 30
    assert all(exprs._template(t) is not None for t in CATALOG_TEXTS)


@_SETTINGS
@given(data=st.data())
def test_templates_match_the_walk_on_catalog_texts(backend, data):
    text = data.draw(st.sampled_from(CATALOG_TEXTS))
    env = {name: data.draw(scalars()) for name in _names(text)}
    if env and data.draw(st.integers(0, 9)) == 0:
        env.pop(data.draw(st.sampled_from(sorted(env))))  # an unknown name
    _assert_as_walked(text, env)


_SCALAR_LEAVES = st.sampled_from(["a", "b", "c", "0", "1", "2", "3", "i"])


def _grow(inner):
    def binary(t):
        left, op, right, parens = t
        return f"({left} {op} {right})" if parens else f"{left} {op} {right}"

    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner,
                  st.booleans()).map(binary),
        inner.map(lambda t: f"-({t})"),
        st.tuples(inner, st.integers(-3, 3)).map(
            lambda t: f"({t[0]})^{t[1]}"))


_SCALAR_TEXTS = st.recursive(_SCALAR_LEAVES, _grow, max_leaves=4)

_TEXTS = st.recursive(
    st.one_of(st.sampled_from(["x", "x", "x", "a", "b", "c", "0", "1", "2",
                               "i", "sqrt(2)", "sqrt(a)"]),
              _SCALAR_TEXTS.map(lambda t: f"sqrt({t})")),
    _grow, max_leaves=8)

# how a drawn text is spoiled, if at all: "" leaves it, "sqrt" takes the
# sqrt of an x-subtree, the others are inserted at a drawn position
_SPOILERS = ["", "", "", "", "", "", "sqrt", " + zz", " + sqrt(3)", " )",
             " +", "$"]


@_SETTINGS
@given(data=st.data())
def test_templates_match_the_walk_on_grammar_texts(backend, data):
    """Sums, differences, products, quotients and integer powers of x,
    names, literals and square roots of scalars, with names bound over Q,
    Q(i) or Q(sqrt 2) (zero among them, so a divisor or a whole
    x-denominator may vanish); some texts also name an unknown, mix in
    sqrt(3), take a sqrt of an x-subtree or have a syntax error."""
    text = data.draw(_TEXTS)
    if not re.search(r"\bx\b", text):
        text = data.draw(st.sampled_from(
            ["x*({})", "({})/x", "{} - x^2", "({})/(x - a)^2 + x"])).format(text)
    spoiler = data.draw(st.sampled_from(_SPOILERS))
    if spoiler == "sqrt":
        text = f"x + sqrt({text} + x)"
    elif spoiler:
        cut = data.draw(st.integers(0, len(text)))
        text = text[:cut] + spoiler + text[cut:]
    env = {name: data.draw(scalars()) for name in ("a", "b", "c")}
    _assert_as_walked(text, env)


@pytest.mark.parametrize("text", [
    "x/(a*x)", "1/(a*x - b*x)", "x/(a - b)", "(a*x)^-2", "(x - x)^-1",
    "1/(x - x)", "(1/(x - x))^0", "x/(1/(x - x))", "x^0 + 1/(a*x)^0",
    "sqrt(2)*x + sqrt(3)*x^2", "sqrt(2)*x + sqrt(3)", "(sqrt(2)*x)/sqrt(3)",
    "sqrt(x) + a", "x + 1/0", "x + zz", "x + )", "x^-1 * a"])
def test_templates_match_the_walk_at_zero_divisors(backend, text):
    for a, b in ((fe(0), fe(0)), (fe(2), fe(2)), (fe(1, 2), fe(-3))):
        _assert_as_walked(text, {"a": a, "b": b})


def test_name_free_scalar_texts_evaluate_once():
    from heunops.exprs import _fixed_value

    _fixed_value.cache_clear()
    assert eval_scalar("-1/4") == fe(-1, 4)
    assert eval_scalar("-1/4", {"a": fe(1)}) == fe(-1, 4)
    assert _fixed_value.cache_info()[:2] == (1, 1)  # (hits, misses)
    assert eval_scalar("sqrt(-1)*i") == fe(-1)
    # a text that names something is walked in each environment
    assert eval_scalar("a/2", {"a": fe(3)}) == fe(3, 2)
    assert eval_scalar("a/2", {"a": fe(5)}) == fe(5, 2)
    # an error is not cached: 1/0 raises on every call
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            eval_scalar("1/0")
