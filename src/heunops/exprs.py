"""A tiny exact expression language for catalog data and CLI parameters.

Grammar (integers only as literals; everything stays in the field):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' integer)?
    atom   := integer | name | 'sqrt' '(' expr ')' | '(' expr ')'

Names resolve from an environment of FieldElements; 'i' is the imaginary
unit, and in rational-function mode 'x' is the free variable.  Values are
FieldElements until 'x' enters, after which they are rational functions.

Each text is tokenized and parsed once into a small tuple tree (cached);
every evaluation is a separate walk of that tree against its environment.
"""

from __future__ import annotations

import functools
import operator
import re

from .field import FieldElement, I, fe
from .poly import LaurentPolynomial
from .ratfunc import RF_X, RationalFunction

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[()+\-*/^,])")


class ExprError(ValueError):
    pass


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprError(f"bad token at {text[pos:]!r}")
        tok = m.group(1)
        out.append("^" if tok == "**" else tok)
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over the grammar, building a tuple tree:

        ("num", n)  ("name", tok)  ("neg", t)  ("pow", t, n)  ("sqrt", t)
        (op, t, u) for op in + - * /

    Every finished node is also appended to self.done, in the order a
    left-to-right evaluation computes it.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.done = []

    def node(self, *node):
        self.done.append(node)
        return node

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ExprError(f"expected {expected or 'token'}, got {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        tree = self.expr()
        if self.peek() is not None:
            raise ExprError(f"trailing input {self.tokens[self.pos:]!r}")
        return tree

    def expr(self):
        tree = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            tree = self.node(op, tree, self.term())
        return tree

    def term(self):
        tree = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            tree = self.node(op, tree, self.unary())
        return tree

    def unary(self):
        if self.peek() == "-":
            self.take()
            return self.node("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            tok = self.take()
            if not tok.isdigit():
                raise ExprError(f"exponent must be an integer, got {tok!r}")
            n = int(tok)
            return self.node("pow", base, -n if neg else n)
        return base

    def atom(self):
        tok = self.take()
        if tok.isdigit():
            return self.node("num", int(tok))
        if tok == "(":
            tree = self.expr()
            self.take(")")
            return tree
        if tok == "sqrt":
            self.take("(")
            arg = self.expr()
            self.take(")")
            return self.node("sqrt", arg)
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            return self.node("name", tok)
        raise ExprError(f"unexpected token {tok!r}")


@functools.lru_cache(maxsize=4096)
def _parse(text: str):
    """The tree of text, parsed once.  Malformed text gives the node
    ("fail", done, message): evaluating it evaluates the nodes finished
    before the error, then raises ExprError(message), so a name or value
    error ahead of a syntax error is still the one reported."""
    parser = _Parser(())
    try:
        parser.tokens = _tokenize(text)
        return parser.parse()
    except ExprError as exc:
        return ("fail", tuple(parser.done), str(exc))


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


def _eval(node, env, allow_x):
    """Values are FieldElements until 'x' enters, then rational functions."""
    kind = node[0]
    if kind == "num":
        return fe(node[1])
    if kind == "name":
        tok = node[1]
        if tok in ("i", "I"):
            return I
        if tok == "x":
            if not allow_x:
                raise ExprError("'x' not allowed in a scalar expression")
            return RF_X
        if tok in env:
            return env[tok]
        raise ExprError(f"unknown name {tok!r}")
    if kind == "neg":
        return -_eval(node[1], env, allow_x)
    if kind == "pow":
        return _eval(node[1], env, allow_x) ** node[2]
    if kind == "sqrt":
        arg = _eval(node[1], env, allow_x)
        if isinstance(arg, RationalFunction):
            raise ExprError("sqrt of a rational function")
        return arg.sqrt()
    if kind == "fail":
        for done in node[1]:
            _eval(done, env, allow_x)
        raise ExprError(node[2])
    return _BINARY[kind](_eval(node[1], env, allow_x),
                         _eval(node[2], env, allow_x))


def eval_scalar(text: str, env=None) -> FieldElement:
    """Evaluate a scalar expression to a FieldElement."""
    value = _eval(_parse(text), env or {}, False)
    if isinstance(value, RationalFunction):  # pragma: no cover - guarded
        raise ExprError("expected a scalar")
    return value


def eval_ratfunc(text: str, env=None) -> RationalFunction:
    """Evaluate an expression in x to a RationalFunction."""
    value = _eval(_parse(text), env or {}, True)
    if isinstance(value, FieldElement):
        return RationalFunction.constant(value)
    return value


def eval_exponent(text: str, env=None) -> LaurentPolynomial:
    """Evaluate an expression in x to a Laurent polynomial exponent."""
    value = eval_ratfunc(text, env)
    num, den = value.num, value.den
    # denominator must be a monomial x^k
    k = den.degree
    if any(not c.is_zero for c in den.coeffs[:-1]):
        raise ExprError(f"exponent {text!r} is not a Laurent polynomial")
    terms = {}
    for m, c in enumerate(num.coeffs):
        terms[m - k] = c
    return LaurentPolynomial(terms)


def parse_assignments(text: str, env=None) -> dict:
    """Parse 'name=expr,name=expr' into a FieldElement mapping."""
    out = {}
    if not text.strip():
        return out
    for piece in text.split(","):
        if "=" not in piece:
            raise ExprError(f"expected name=value, got {piece!r}")
        name, value = piece.split("=", 1)
        out[name.strip()] = eval_scalar(value.strip(), env)
    return out
