"""The seven operators of the Heun class, as one table.

Each family is one row: its ordered parameter names and the coefficients of
the monic operator d^2 + p1 d + p0, written in the expression language of
heunops.exprs.  A row may also carry

  * derived names, computed from the parameters (the Heun Fuchs relation
    gives epsilon, so epsilon is never a parameter);
  * excluded values (Heun's a in {0, 1}: merged-singularity requests are
    served by the confluent rows, which build that operator directly);
  * the relabelings of the companion constants for degrees 1 and 2, which
    map the catalog's published beta0/beta1/beta2 to the integration
    constants of build_q1/build_q2 (published companions absorb the constant
    parts of p1 and p0 into their labeled constants).

Derived names and relabelings are ordered "name = expr" assignments; each
sees the ones before it.
"""

from __future__ import annotations

from .field import FieldElement, ZERO, ONE, fe
from .diffop import DiffOp
from .exprs import eval_ratfunc, eval_scalar
from .poly import P_X, Polynomial
from .ratfunc import RationalFunction, pole_order, poly_roots


class ParameterError(ValueError):
    pass


INFINITY = "infinity"

ORDINARY = "ordinary"
REGULAR_SINGULAR = "regular-singular"
IRREGULAR_SINGULAR = "irregular-singular"


def _fe(value) -> FieldElement:
    el = FieldElement._coerce(value)
    if el is None:
        raise ParameterError(f"not an exact scalar: {value!r}")
    return el


def assign(assignments, env: dict) -> dict:
    """env extended by ordered "name = expr" assignments."""
    out = dict(env)
    for text in assignments:
        name, expr = text.split("=", 1)
        out[name.strip()] = eval_scalar(expr, out)
    return out


class Family:
    """One row of the family table (see the module docstring)."""

    def __init__(self, name: str, params: str, p1: str, p0: str,
                 derived=(), exclude=None, relabel=None):
        self.name = name
        self.params = tuple(params.split())
        self.p1 = p1
        self.p0 = p0
        self.derived = tuple(derived)
        self.exclude = exclude  # (parameter, excluded values, hint)
        self.relabel = {1: (), 2: (), **(relabel or {})}

    def values(self, given: dict) -> dict:
        """The exact parameters in given, validated, plus the derived names."""
        missing = [n for n in self.params if n not in given]
        extra = [n for n in given if n not in self.params]
        if missing or extra:
            raise ParameterError(
                f"{self.name} expects parameters {self.params}; "
                f"missing {missing or 'none'}, unexpected {extra or 'none'}")
        env = {n: _fe(given[n]) for n in self.params}
        if self.exclude:
            name, bad, hint = self.exclude
            if any(env[name] == eval_scalar(v) for v in bad):
                raise ParameterError(f"{self.name} requires {name} not in "
                                     f"{{{', '.join(bad)}}}; {hint}")
        return assign(self.derived, env)

    def build(self, given: dict) -> DiffOp:
        env = self.values(given)
        return DiffOp([eval_ratfunc(self.p0, env), eval_ratfunc(self.p1, env),
                       ONE])


class _Table(dict):
    def __missing__(self, name):
        raise ParameterError(f"unknown family {name!r}; "
                             f"known: {', '.join(sorted(self))}")


FAMILIES = _Table((row.name, row) for row in (
    Family("heun", "a q alpha beta gamma delta",
           p1="gamma/x + delta/(x-1) + epsilon/(x-a)",
           p0="(alpha*beta*x - q)/(x*(x-1)*(x-a))",
           derived=["epsilon = alpha + beta + 1 - delta - gamma"],
           exclude=("a", ("0", "1"), "for the merged-singularity operator "
                    "use the confluent/reduced-confluent constructors")),
    Family("confluent", "p q alpha gamma delta",
           p1="p + gamma/x + delta/(x-1)",
           p0="(p*alpha*x - q)/(x*(x-1))",
           relabel={1: ["beta0 = beta0 - beta1*p/2"],
                    2: ["beta1 = beta1 - beta2*p",
                        "beta0 = beta0 - beta1*p/2"]}),
    Family("reduced_confluent", "kappa gamma delta q",
           p1="gamma/x + delta/(x-1)",
           p0="(kappa*x + q)/(x*(x-1))"),
    Family("biconfluent", "tau nu alpha q",
           p1="tau/x + nu/x^2 - 1",
           p0="-(alpha*x + q)/x",
           relabel={1: ["beta0 = beta0 + beta1/2"],
                    2: ["beta1 = beta1 + beta2",
                        "beta0 = beta0 + beta1/2 + beta2*alpha"]}),
    Family("double_confluent", "tau nu alpha q",
           p1="tau/x + nu/x^2 - 1",
           p0="-(alpha*x + q)/x^2",
           relabel={1: ["beta0 = beta0 + beta1/2"],
                    2: ["beta1 = beta1 + beta2",
                        "beta0 = beta0 + beta1/2"]}),
    Family("triconfluent", "sigma alpha q",
           p1="sigma - x^2",
           p0="alpha*x - q",
           relabel={1: ["beta0 = beta0 - beta1*sigma/2"],
                    2: ["beta1 = beta1 - beta2*sigma",
                        "beta0 = beta0 - beta1*sigma/2 + beta2*q"]}),
    Family("reduced_triconfluent", "A0 A1 A2",
           p1="0",
           p0="A0 + A1*x + A2*x^2 - 9*x^4/4",
           relabel={2: ["beta0 = beta0 - beta2*A0"]}),
))

PARAM_NAMES = {name: row.params for name, row in FAMILIES.items()}


def classify_singularities(op: DiffOp):
    """Finite singular points (Fuchs criterion) plus the point at infinity.

    An operator d^2 + p1 d + p0 has a regular singular point where p1 has at
    most a simple pole and p0 at most a double pole; infinity is classified
    through the x -> 1/x pullback with coefficients 2/t - p1(1/t)/t^2 and
    p0(1/t)/t^4.
    """
    if op.order != 2:
        raise ValueError("classification implemented for order-2 operators")
    lead = op.coeff(2)
    p1 = op.coeff(1) / lead
    p0 = op.coeff(0) / lead
    den = (p1.den * p0.den) // p1.den.gcd(p0.den)  # lcm of denominators
    exact, numeric = poly_roots(den)
    if numeric:
        raise ValueError(
            f"singular points not resolvable in the active field: {numeric}")
    out = []
    for point, _mult in sorted(exact, key=lambda t: str(t[0])):
        o1 = pole_order(p1, point)
        o0 = pole_order(p0, point)
        if o1 == 0 and o0 == 0:
            kind = ORDINARY
        elif o1 <= 1 and o0 <= 2:
            kind = REGULAR_SINGULAR
        else:
            kind = IRREGULAR_SINGULAR
        if kind != ORDINARY:
            out.append((point, kind))
    # pullback to t = 1/x
    t = P_X
    p1_inf = (RationalFunction(Polynomial.constant(fe(2)), t)
              - p1.subst_inverse() / RationalFunction.from_polynomial(t * t))
    p0_inf = p0.subst_inverse() / RationalFunction.from_polynomial(t ** 4)
    o1 = pole_order(p1_inf, ZERO)
    o0 = pole_order(p0_inf, ZERO)
    if o1 == 0 and o0 == 0:
        kind = ORDINARY
    elif o1 <= 1 and o0 <= 2:
        kind = REGULAR_SINGULAR
    else:
        kind = IRREGULAR_SINGULAR
    out.append((INFINITY, kind))
    return out
