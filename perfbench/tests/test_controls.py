"""The falsification controls' known answer, established with sympy.

P and Q are rebuilt from the family coefficient tables and the
semi-commuting construction written out below in sympy, and [P, Q] is
computed by applying both orders to an unknown function f.  heunops only
supplies the inputs: the parameter draw, the override and the relabeled
companion constants.  beta0 stays a symbol, so the answer holds for every
seed (the controls pin all other inputs).

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import sys
from pathlib import Path

import pytest
import sympy as sp

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from heunops import catalog  # noqa: E402
from heunops.exprs import parse_assignments  # noqa: E402
from heunops.families import PARAM_NAMES  # noqa: E402
from workloads import CONTROLS  # noqa: E402

x = sp.Symbol("x")
b0 = sp.Symbol("b0")


def _q(value):
    assert value.is_rational, value
    return sp.Rational(value.ar.numerator, value.ar.denominator)


def family_operator(family, v):
    """[p0, p1, 1] of the monic family operator d^2 + p1 d + p0."""
    if family == "heun":
        a = v["a"]
        eps = v["alpha"] + v["beta"] + 1 - v["delta"] - v["gamma"]
        p1 = v["gamma"] / x + v["delta"] / (x - 1) + eps / (x - a)
        p0 = (v["alpha"] * v["beta"] * x - v["q"]) / (x * (x - 1) * (x - a))
    elif family == "confluent":
        p1 = v["p"] + v["gamma"] / x + v["delta"] / (x - 1)
        p0 = (v["p"] * v["alpha"] * x - v["q"]) / (x * (x - 1))
    elif family == "reduced_confluent":
        p1 = v["gamma"] / x + v["delta"] / (x - 1)
        p0 = (v["kappa"] * x + v["q"]) / (x * (x - 1))
    elif family in ("biconfluent", "double_confluent"):
        p1 = v["tau"] / x + v["nu"] / x**2 - 1
        power = 1 if family == "biconfluent" else 2
        p0 = -(v["alpha"] * x + v["q"]) / x**power
    elif family == "triconfluent":
        p1 = v["sigma"] - x**2
        p0 = v["alpha"] * x - v["q"]
    else:
        p1 = sp.Integer(0)
        p0 = v["A0"] + v["A1"] * x + v["A2"] * x**2 - sp.Rational(9, 4) * x**4
    return [p0, p1, sp.Integer(1)]


def companion(p, degree, b1, b2):
    """Q1 = b1 d + (b1/2) p1 + b0;  Q2 = b2 P + b1 (d + p1/2) + b0."""
    p0, p1, _ = p
    if degree == 1:
        return [b1 / 2 * p1 + b0, b1]
    return [b1 / 2 * p1 + b2 * p0 + b0, b2 * p1 + b1, b2]


def commutator(p, q):
    """Coefficients of P∘Q - Q∘P, each as a cancelled rational function."""
    f = sp.Function("f")(x)

    def apply(op, h):
        return sum(c * sp.diff(h, x, k) for k, c in enumerate(op))

    expr = sp.expand(apply(p, apply(q, f)) - apply(q, apply(p, f)))
    ds = [sp.Symbol(f"D{k}") for k in range(5)]
    for k in reversed(range(1, 5)):
        expr = expr.subs(sp.diff(f, x, k), ds[k])
    expr = sp.expand(expr.subs(f, ds[0]))
    return [sp.cancel(expr.coeff(d)) for d in ds]


def pair(record, full):
    values = {n: _q(full[n]) for n in PARAM_NAMES[record.family]}
    p = family_operator(record.family, values)
    spec = catalog.construction_spec(record.family, record.degree, full)
    b2 = _q(spec.beta2) if record.degree == 2 else None
    return p, companion(p, record.degree, _q(spec.beta1), b2)


def control_env(record, override):
    """The inputs verify-case --override builds: the seed-0 draw, the
    overrides on top, and overridden fixed parameters made free."""
    env = catalog.draw_env(record, 0, 0)
    values = parse_assignments(override)
    env.update(values)
    params = {k: v for k, v in record.params.items() if k not in values}
    free = dict(record.free, **{k: {} for k in record.params if k in values})
    record = dataclasses.replace(record, params=params, free=free)
    return catalog.resolve_env(record, env)


RECORDS = {r.id: r for r in catalog.enumerate_cases()}


def test_controls_cover_every_record_with_fixed_params():
    assert set(CONTROLS) == {i for i, r in RECORDS.items() if r.params}


@pytest.mark.parametrize("case_id", sorted(CONTROLS))
def test_control_is_refuted(case_id):
    record = RECORDS[case_id]
    p, q = pair(record, control_env(record, CONTROLS[case_id]))
    comm = commutator(p, q)
    assert any(c != 0 for c in comm)
    assert all(b0 not in c.free_symbols for c in comm)


@pytest.mark.parametrize("case_id", sorted(
    i for i, r in RECORDS.items() if r.kind != "no_nontrivial"))
def test_oracle_commutes_on_the_unperturbed_record(case_id):
    record = RECORDS[case_id]
    full = catalog.resolve_env(record, catalog.draw_env(record, 0, 0))
    p, q = pair(record, full)
    assert all(c == 0 for c in commutator(p, q))
