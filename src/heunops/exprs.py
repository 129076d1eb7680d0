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

Each text is tokenized and parsed once into a small tuple tree (cached).
A scalar text that names nothing is evaluated once.  A text in x is also
expanded once into a template N(x)/D(x) whose coefficients are integer
polynomials in the text's maximal x-free subtrees, its refs (partial
evaluation of the walk on the static text; Jones, Gomard and Sestoft,
Partial Evaluation and Automatic Program Generation, 1993).  Evaluating it
walks each ref once, in the walk's order, builds the coefficients from their
values and reduces once.  Any other text, and any template evaluation that
fails, is a walk of the tree against the environment, so every value and
every error is the walk's.
"""

from __future__ import annotations

import functools
import operator
import re

from .field import ONE, ZERO, FieldElement, I, fe
from .poly import LaurentPolynomial, Polynomial
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


# -- templates ----------------------------------------------------------------
#
# While a template is built, a polynomial in x is a list of coefficients,
# ascending, each a dict {monomial: int} with a monomial a sorted tuple of ref
# indices; integer literals are folded into the ints.  Every x-polynomial
# that a division or a negative power puts into the denominator is kept as a
# guard, unless one of its coefficients is a nonzero integer: when every
# guard is nonzero at the refs' values, no division of the walk was by zero,
# D is nonzero and N/D is the walk's value; when one is zero, the walk
# divides by zero somewhere and is re-run to raise.

_MAX_TERMS = 256  # monomials (or degree in x) past which a text is walked


class _Unfit(Exception):
    """The text is not templated."""


def _names(node) -> set:
    """The names a tree uses."""
    if node[0] == "name":
        return {node[1]}
    return set().union(*(_names(child) for child in node[1:]
                         if type(child) is tuple))


def _tidy(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    if len(p) > _MAX_TERMS or sum(map(len, p)) > _MAX_TERMS:
        raise _Unfit
    return p


def _put(row: dict, mono: tuple, v: int) -> None:
    """row[mono] += v, dropping the entry when it cancels."""
    v += row.get(mono, 0)
    if v:
        row[mono] = v
    else:
        row.pop(mono, None)


def _t_add(p: list, q: list, sign: int) -> list:
    out = [dict(c) for c in p] + [{} for _ in range(len(q) - len(p))]
    for k, c in enumerate(q):
        for mono, v in c.items():
            _put(out[k], mono, sign * v)
    return _tidy(out)


def _t_mul(p: list, q: list) -> list:
    if p == _T_ONE or q == _T_ONE:
        return q if p == _T_ONE else p
    if not (p and q):
        return []
    out = [{} for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            for ma, va in a.items():
                for mb, vb in b.items():
                    _put(out[i + j], tuple(sorted(ma + mb)), va * vb)
    return _tidy(out)


def _t_pow(p: list, n: int) -> list:
    out = _T_ONE
    for _ in range(n):
        out = _t_mul(out, p)
    return out


_T_ONE = [{(): 1}]


class _Expansion:
    """The expansion of one tree: its refs in walk order, and guards."""

    def __init__(self):
        self.refs = {}
        self.guards = []

    def guard(self, p: list) -> None:
        if not p:
            raise _Unfit  # always a division by zero
        if not any(len(c) == 1 and () in c for c in p):
            self.guards.append(p)

    def expand(self, node):
        """(N, D) for node."""
        if node[0] == "num":
            return ([{(): node[1]}] if node[1] else []), _T_ONE
        if "x" not in _names(node):
            k = self.refs.setdefault(node, len(self.refs))
            return [{(k,): 1}], _T_ONE
        kind = node[0]
        if kind == "name":  # x
            return [{}, {(): 1}], _T_ONE
        if kind == "neg":
            num, den = self.expand(node[1])
            return _t_add([], num, -1), den
        if kind == "pow":
            num, den = self.expand(node[1])
            n = node[2]
            if n < 0:
                self.guard(num)
                num, den, n = den, num, -n
            if n > _MAX_TERMS:
                raise _Unfit
            return _t_pow(num, n), _t_pow(den, n)
        if kind == "sqrt":
            raise _Unfit
        n1, d1 = self.expand(node[1])
        n2, d2 = self.expand(node[2])
        if kind == "*":
            return _t_mul(n1, n2), _t_mul(d1, d2)
        if kind == "/":
            self.guard(n2)
            return _t_mul(n1, d2), _t_mul(d1, n2)
        sign = 1 if kind == "+" else -1
        if d1 == d2:
            return _t_add(n1, n2, sign), d1
        return _t_add(_t_mul(n1, d2), _t_mul(n2, d1), sign), _t_mul(d1, d2)


@functools.lru_cache(maxsize=4096)
def _template(text: str):
    """The template of a text in x, or None when the text is walked: it
    names no x, takes a sqrt of an x-subtree, is malformed, or expands past
    _MAX_TERMS.

    A template is (refs, tops, monos, num, den, guards): the ref subtrees,
    the largest power of each ref in any monomial, the monomials as tuples
    of (ref, power) pairs, and N, D and each guard as one list of
    (integer, monomial index) pairs per coefficient, ascending in x."""
    tree = _parse(text)
    if tree[0] == "fail" or "x" not in _names(tree):
        return None
    expansion = _Expansion()
    try:
        num, den = expansion.expand(tree)
    except _Unfit:
        return None
    polys = [num, den, *expansion.guards]
    monos = sorted({mono for p in polys for c in p for mono in c},
                   key=lambda m: (len(m), m))
    index = {mono: j for j, mono in enumerate(monos)}
    refs = tuple(expansion.refs)
    tops = [max((m.count(k) for m in monos), default=0)
            for k in range(len(refs))]
    num, den, *guards = (
        tuple(tuple((v, index[mono]) for mono, v in c.items()) for c in p)
        for p in polys)
    monos = tuple(tuple((k, m.count(k)) for k in sorted(set(m)))
                  for m in monos)
    return refs, tuple(tops), monos, num, den, tuple(guards)


def _monomials_rational(values, tops, monos) -> list:
    """Each monomial at rational ref values n_k/d_k, times the common factor
    prod_k d_k^tops[k], as an integer."""
    nums, dens = [], []
    for v, top in zip(values, tops):
        n, d = v.ar.numerator, v.ar.denominator
        pn, pd = [1], [1]
        for _ in range(top):
            pn.append(pn[-1] * n)
            pd.append(pd[-1] * d)
        nums.append(pn)
        dens.append(pd)
    full = 1
    for pd, top in zip(dens, tops):
        full *= pd[top]
    out = []
    for mono in monos:
        v = full
        for k, e in mono:
            v = v * nums[k][e] // dens[k][e]
        out.append(v)
    return out


def _monomials_field(values, monos) -> list:
    """Each monomial at the ref values, over FieldElement."""
    out = []
    for mono in monos:
        v = ONE
        for k, e in mono:
            p = values[k] if e == 1 else values[k] ** e
            v = p if v is ONE else v * p
        out.append(v)
    return out


def _field_sum(terms, vals) -> FieldElement:
    """sum c*vals[j] over (c, j) terms, the c = 1 terms unscaled."""
    acc = None
    for c, j in terms:
        v = vals[j] if c == 1 else vals[j] * c
        acc = v if acc is None else acc + v
    return ZERO if acc is None else acc


def _run_template(template, env) -> RationalFunction | None:
    """The template's value in env; None when the walk must decide, because
    the refs lie in two quadratic extensions or a guard is zero."""
    refs, tops, monos, num, den, guards = template
    values = [_eval(ref, env, True) for ref in refs]
    rational = all(v.is_rational for v in values)
    if rational:
        vals = _monomials_rational(values, tops, monos)
    elif len({v.d for v in values} - {None}) > 1:
        return None
    else:
        vals = _monomials_field(values, monos)

    def coeffs(p):
        if rational:
            return [sum(v * vals[j] for v, j in c) for c in p]
        return [_field_sum(c, vals) for c in p]

    for guard in guards:
        if all(c == 0 for c in coeffs(guard)):
            return None
    n, d = coeffs(num), coeffs(den)
    if not rational:
        return RationalFunction(Polynomial(n), Polynomial(d))
    if all(c == 0 for c in d[1:]):
        # a constant denominator: N/d0 is already reduced
        return RationalFunction(Polynomial.from_ints(n, d[0]))
    return RationalFunction(Polynomial.from_ints(n), Polynomial.from_ints(d))


@functools.lru_cache(maxsize=4096)
def _fixed_value(text: str):
    """The value of a scalar text that names nothing but i, evaluated once;
    None for a text that names something or is malformed."""
    tree = _parse(text)
    if tree[0] == "fail" or not _names(tree) <= {"i", "I"}:
        return None
    return _eval(tree, {}, False)


def eval_scalar(text: str, env=None) -> FieldElement:
    """Evaluate a scalar expression to a FieldElement."""
    value = _fixed_value(text)
    if value is None:
        value = _eval(_parse(text), env or {}, False)
    if isinstance(value, RationalFunction):  # pragma: no cover - guarded
        raise ExprError("expected a scalar")
    return value


def eval_ratfunc(text: str, env=None) -> RationalFunction:
    """Evaluate an expression in x to a RationalFunction."""
    template = _template(text)
    if template is not None:
        try:
            value = _run_template(template, env or {})
        except (ArithmeticError, ValueError):
            value = None
        if value is not None:
            return value
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
    if k and den.valuation() != k:
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
