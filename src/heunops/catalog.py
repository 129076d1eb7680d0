"""Case registry and uniform verification pipeline.

Every enumerated commuting (or provably non-commuting) case of the operator
catalog lives in data/catalog.json as declarative data: the family and its
fixed parameters, which parameters are drawn randomly, the constraint tying
the companion's constants together, closed-form solution bases, series
checkpoints, and the published coefficient tables kept for diffing.

verify_case rebuilds everything from exact arithmetic:

  * the companion construction must commute exactly ([P,Q] = 0),
  * both composition orders must agree (L = Q∘P = P∘Q),
  * each closed-form basis function must be annihilated by its factor and
    by L, exactly,
  * series markers get a Frobenius solution of the factor and a residual
    check of L against it,
  * published tables are compared entry by entry; mismatches are report
    output (several published entries are known typos), never failures,
  * the numeric Wronskian at x = 1/3 certifies basis independence.

A verdict without an explicit env builds its draw once: the resolved env,
the basis functions and the Wronskian value that accepted the draw are the
ones the verdict checks and reports.

The published-value constants in the tables use the catalog's own labeling
of the companion constants (beta0/beta1/beta2); construction_spec maps those
labels to the construction's constants with the relabeling rows of the
family table (heunops.families).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .field import FieldElement, ONE, Q, ZERO, fe
from .diffop import (DiffOp, commutator, compose, gauge_transform,
                     over_common_denominator)
from .exprs import eval_exponent, eval_ratfunc, eval_scalar
from .families import FAMILIES, assign
from .funcalg import ExpMonomial, FunctionSum, annihilates, wronskian_numeric
from .poly import Polynomial
from .ratfunc import RationalFunction, partial_fractions, poly_roots
from .semicommute import SemiCommuteSpec, build_q1, build_q2, residual
from .series import frobenius_series, series_residuals

CATALOG_VERSION = "1"

#: fixed notes that must always surface in the verify-all diff report
DOCUMENTED_DISCREPANCIES = {
    "heun-n2-case4-order": (
        "heun.n2.case4: the published operator lists the constant beta0 at "
        "derivative order 1; composition places it at order 2"),
    "heun-n2-case7-chain": (
        "heun.n2.case7: the published first-order entry at the pole x = a is "
        "an ambiguous chain ('4*mu = C_{1,1}'); the computed value is "
        "recorded instead"),
    "confluent-n2-q0-half": (
        "confluent degree-2 companion: the published zeroth coefficient "
        "lacks the overall 1/2 carried by the reduced-confluent form; the "
        "construction recomputes q0 from the first-order condition"),
    "rconfluent-n2-q0-term": (
        "reduced-confluent degree-2 companion: the published zeroth "
        "coefficient omits the beta1*delta/2 term at the pole x = 1"),
    "biconfluent-n2-basis-dup": (
        "biconfluent.n2.case2/3: the published solution basis lists the "
        "exponential rate m_minus twice; the computed basis uses m_minus "
        "and m_plus"),
}


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class CaseRecord:
    id: str
    kind: str                      # commuting | no_nontrivial | referral
    family: str
    degree: int
    params: dict
    free: dict
    constraint: dict
    defs: dict
    basis_P: tuple
    basis_Q: tuple
    series: dict | None
    printed_L: dict | None
    printed_Q: bool
    ghe: bool
    referral: dict | None
    symmetric: bool
    anchor: str
    notes: tuple
    docs: tuple


def _load_raw() -> dict:
    data = resources.files("heunops").joinpath("data/catalog.json")
    return json.loads(data.read_text())


_CACHE: list | None = None


def enumerate_cases() -> list:
    """All catalog records, in file order."""
    global _CACHE
    if _CACHE is None:
        raw = _load_raw()
        records = []
        for entry in raw["cases"]:
            records.append(CaseRecord(
                id=entry["id"],
                kind=entry["kind"],
                family=entry["family"],
                degree=entry["degree"],
                params=entry.get("params", {}),
                free=entry.get("free", {}),
                constraint=entry.get("constraint", {}),
                defs=entry.get("defs", {}),
                basis_P=tuple(entry.get("basis_P", ())),
                basis_Q=tuple(entry.get("basis_Q", ())),
                series=entry.get("series"),
                printed_L=entry.get("printed_L"),
                printed_Q=entry.get("printed_Q", False),
                ghe=entry.get("ghe", False),
                referral=entry.get("referral"),
                symmetric=entry.get("symmetric", False),
                anchor=entry.get("anchor", entry["id"]),
                notes=tuple(entry.get("notes", ())),
                docs=tuple(entry.get("docs", ())),
            ))
        ids = [r.id for r in records]
        if len(ids) != len(set(ids)):
            raise CatalogError("duplicate case ids")
        _CACHE = records
    return list(_CACHE)


def get_case(case_id: str) -> CaseRecord:
    for rec in enumerate_cases():
        if rec.id == case_id:
            return rec
    raise CatalogError(f"unknown case id {case_id!r}")


# --------------------------------------------------------------------------
# parameter draws


def _draw_rational(rng: random.Random, nonint: bool) -> FieldElement:
    dens = (2, 3, 4) if nonint else (1, 1, 2, 3, 4)
    while True:
        num = rng.randint(-3, 3)
        den = rng.choice(dens)
        if nonint and num % den == 0:
            continue
        return fe(num, den)


class _Draw(NamedTuple):
    """One accepted draw: the catalog-labeled env, its resolved full env,
    the basis functions (basis_P + basis_Q, in order) and their numeric
    Wronskian at x = 1/3 (None for an empty basis)."""
    env: dict
    full: dict
    funcs: list
    wronskian: complex | None


def draw_env(record: CaseRecord, seed: int, index: int,
             overrides: dict | None = None) -> dict:
    """Concrete admissible parameters for one verification run.

    Small random rationals (denominators <= 4) for every free parameter and
    companion constant, resampled until the excluded values, the constraint,
    the derived definitions (nonzero discriminants), and basis independence
    (pairwise distinct growth signatures, no pole at the Wronskian point)
    all hold.
    """
    return _draw(record, seed, index, overrides).env


def _draw(record: CaseRecord, seed: int, index: int,
          overrides: dict | None = None) -> _Draw:
    """The draw behind draw_env, with everything its acceptance built."""
    rng = random.Random(f"{seed}|{record.id}|{index}")
    for _attempt in range(500):
        env: dict = {}
        ok = True
        for name, spec_ in record.free.items():
            nonint = spec_.get("nonint", False)
            excluded = spec_.get("exclude", [])
            for _ in range(50):
                value = _draw_rational(rng, nonint)
                if all(value != eval_scalar(e, env) for e in excluded):
                    break
            else:
                ok = False
                break
            env[name] = value
        if not ok:
            continue
        # companion constants (catalog labeling); beta0 stays nonzero so the
        # companion's solutions are independent from the base operator's
        env["beta1"] = _draw_rational(rng, False)
        env["beta0"] = _draw_rational(rng, False)
        while env["beta0"].is_zero:
            env["beta0"] = _draw_rational(rng, False)
        if record.degree == 1:
            while env["beta1"].is_zero:
                env["beta1"] = _draw_rational(rng, False)
        else:
            env["beta2"] = _draw_rational(rng, False)
            while env["beta2"].is_zero:
                env["beta2"] = _draw_rational(rng, False)
        try:
            full = resolve_env(record, env, overrides)
        except (ArithmeticError, ValueError):
            continue
        basis = _basis_admissible(record, full)
        if basis is not None:
            return _Draw(env, full, *basis)
    raise CatalogError(f"could not draw admissible parameters for {record.id}")


def resolve_env(record: CaseRecord, env: dict,
                overrides: dict | None = None) -> dict:
    """Fixed parameters, constraint, and derived names folded into env."""
    full = dict(env)
    for name, expr in record.params.items():
        full[name] = eval_scalar(expr, full)
    if overrides:
        full.update(overrides)
    for name, expr in record.constraint.items():
        full[name] = eval_scalar(expr, full)
    full = assign(FAMILIES[record.family].derived, full)
    if record.degree == 2 and "beta2" in full:
        full["mu"] = full["beta0"] / full["beta2"]
    for name, expr in record.defs.items():
        full[name] = eval_scalar(expr, full)
    return full


def _basis_admissible(record: CaseRecord, env: dict):
    """(funcs, Wronskian value at x = 1/3) for the basis of a resolved env,
    or None for a draw whose basis degenerates (coincident exponential
    rates, pole at the Wronskian point): the value must clear 1e-6.  An
    empty basis is admissible, with value None."""
    try:
        funcs = [_basis_function(d, env)
                 for d in record.basis_P + record.basis_Q]
    except (ArithmeticError, ValueError):
        return None
    if not funcs:
        return funcs, None
    try:
        value = wronskian_numeric(funcs, complex(1 / 3))
    except (ArithmeticError, ValueError):
        return None
    return (funcs, value) if abs(value) > 1e-6 else None


def _basis_function(descriptor, env: dict) -> FunctionSum:
    if isinstance(descriptor, str):
        descriptor = {"rat": descriptor}
    rat = eval_ratfunc(descriptor.get("rat", "1"), env)
    rho = eval_scalar(descriptor.get("rho", "0"), env)
    g = eval_exponent(descriptor.get("exp", "0"), env)
    return FunctionSum([ExpMonomial(rat, rho, g)])


# --------------------------------------------------------------------------
# construction


def construction_spec(family: str, degree: int, env: dict) -> SemiCommuteSpec:
    """Map catalog-labeled constants to the construction's integration
    constants, with the family's relabeling row for this degree; this makes
    build_q1/build_q2 reproduce the published operators exactly."""
    b = assign(FAMILIES[family].relabel[degree], env)
    return SemiCommuteSpec(degree=degree, beta0=b["beta0"], beta1=b["beta1"],
                           beta2=b["beta2"] if degree == 2 else None)


def build_case(record: CaseRecord, env: dict):
    """(P, Q) for a resolved environment."""
    family = FAMILIES[record.family]
    p = family.build({name: env[name] for name in family.params})
    spec = construction_spec(record.family, record.degree, env)
    q = build_q1(p, spec) if record.degree == 1 else build_q2(p, spec)
    return p, q


# --------------------------------------------------------------------------
# published-table comparison


def _printed_q_expressions(family: str, degree: int) -> dict:
    """Published companion coefficients, as expressions in x."""
    if degree == 1:
        table = {
            "heun": {"q1": "beta1",
                     "q0": "(beta1/2)*(gamma/x+delta/(x-1)+epsilon/(x-a))"
                           "+beta0"},
            "confluent": {"q1": "beta1",
                          "q0": "(beta1/2)*(gamma/x+delta/(x-1))+beta0"},
            "reduced_confluent": {"q1": "beta1",
                                  "q0": "(beta1/2)*(gamma/x+delta/(x-1))"
                                        "+beta0"},
            "biconfluent": {"q1": "beta1",
                            "q0": "(beta1/2)*(tau/x+nu/x^2)+beta0"},
            "double_confluent": {"q1": "beta1",
                                 "q0": "(beta1/2)*(tau/x+nu/x^2)+beta0"},
            "triconfluent": {"q1": "beta1", "q0": "-(beta1/2)*x^2+beta0"},
            "reduced_triconfluent": {"q1": "beta1", "q0": "beta0"},
        }
    else:
        table = {
            "heun": {
                "q2": "beta2",
                "q1": "beta2*(gamma/x+delta/(x-1)+epsilon/(x-a))+beta1",
                "q0": "(beta0*x^3+(-beta0*(a+1)+(beta1/2)*(delta+epsilon+gamma))*x^2"
                      "+(beta0*a+alpha*beta*beta2-(beta1/2)*(a*(delta+gamma)+epsilon+gamma))*x"
                      "+(beta1*gamma*a/2-beta2*q))/(x*(x-1)*(x-a))",
            },
            "confluent": {
                "q2": "beta2",
                "q1": "beta2*(gamma/x+delta/(x-1))+beta1",
                "q0": "(beta1*gamma+beta2*(2*q-gamma*p))/x"
                      "+(beta1*delta+beta2*(2*alpha*p-delta*p-2*q))/(x-1)"
                      "+beta0",
            },
            "reduced_confluent": {
                "q2": "beta2",
                "q1": "beta2*(gamma/x+delta/(x-1))+beta1",
                "q0": "(beta1*gamma-2*beta2*q)/(2*x)"
                      "+(2*beta2*(kappa+q))/(2*(x-1))+beta0",
            },
            "biconfluent": {
                "q2": "beta2",
                "q1": "beta2*(tau/x+nu/x^2)+beta1",
                "q0": "(tau*(beta1+beta2)-2*beta2*q)/(2*x)"
                      "+nu*(beta1+beta2)/(2*x^2)+beta0",
            },
            "double_confluent": {
                "q2": "beta2",
                "q1": "beta2*(tau/x+nu/x^2)+beta1",
                "q0": "(beta1*tau+beta2*(tau-2*alpha))/(2*x)"
                      "+(beta1*nu+beta2*(nu-2*q))/(2*x^2)+beta0",
            },
            "triconfluent": {
                "q2": "beta2",
                "q1": "beta1-beta2*x^2",
                "q0": "((sigma*beta2-beta1)/2)*x^2+beta2*alpha*x+beta0",
            },
            "reduced_triconfluent": {
                "q2": "beta2",
                "q1": "beta1",
                "q0": "beta2*(A1*x+A2*x^2-(9/4)*x^4)+beta0",
            },
        }
    return table[family]


_Q_DOC = {
    ("confluent", 2): "confluent-n2-q0-half",
    ("reduced_confluent", 2): "rconfluent-n2-q0-term",
}


def _coefficient_entries(coeff: RationalFunction, order: int, env: dict,
                         pole_names=("0", "1", "a")) -> dict:
    """Partial-fraction fingerprint of one operator coefficient."""
    poles = []
    for name in pole_names:
        if name == "a" and "a" not in env:
            continue
        poles.append(eval_scalar(name, env) if name != "a" else env["a"])
    pf = partial_fractions(coeff, poles)
    out = {}
    for m, c in enumerate(pf.polynomial_part.coeffs):
        if not c.is_zero:
            out[(order, "poly", m)] = c
    names = [n for n in pole_names if not (n == "a" and "a" not in env)]
    for pole, k, c in pf.pole_terms:
        label = next(n for n, v in zip(names, poles) if v == pole)
        out[(order, label, k)] = c
    return out


def diff_printed_l(record: CaseRecord, env: dict, l_op: DiffOp) -> list:
    """Entry-by-entry diff of the composed operator vs the published table."""
    info = record.printed_L
    if not info:
        return []
    target = l_op
    if info.get("normalized", False):
        target = l_op.scale(env["beta2"].inverse())
    computed: dict = {}
    for order in range(target.order + 1):
        computed.update(_coefficient_entries(target.coeff(order), order, env))
    printed: dict = {}
    ambiguous: list = []
    for entry in info["entries"]:
        order = entry["order"]
        if "ambiguous" in entry:
            key = (order, entry["pole"], entry.get("k", 1))
            ambiguous.append((key, entry["ambiguous"], entry.get("doc")))
            continue
        doc = entry.get("doc")
        if "poly" in entry:
            for m, expr in enumerate(entry["poly"]):
                value = eval_scalar(expr, env)
                if not value.is_zero or doc:
                    printed[(order, "poly", m)] = (value, doc)
        elif "const" in entry:
            value = eval_scalar(entry["const"], env)
            if not value.is_zero or doc:
                printed[(order, "poly", 0)] = (value, doc)
        else:
            value = eval_scalar(entry["value"], env)
            if not value.is_zero or doc:
                printed[(order, entry["pole"], entry.get("k", 1))] = \
                    (value, doc)
    diffs = []
    amb_keys = {k for k, _, _ in ambiguous}
    for key in sorted(set(computed) | set(printed), key=str):
        if key in amb_keys:
            continue
        comp = computed.get(key, ZERO)
        want, doc = printed.get(key, (ZERO, None))
        if comp != want:
            diffs.append({
                "case": record.id, "target": "L", "entry": _entry_label(key),
                "printed": str(want), "computed": str(comp),
                "doc": doc,
            })
    for key, exprs, doc in ambiguous:
        diffs.append({
            "case": record.id, "target": "L", "entry": _entry_label(key),
            "printed": "ambiguous: " + " = ".join(exprs),
            "computed": str(computed.get(key, ZERO)),
            "doc": doc,
        })
    return diffs


def _entry_label(key) -> str:
    order, where, k = key
    if where == "poly":
        return f"d^{order} coefficient, x^{k} term"
    return f"d^{order} coefficient, 1/(x-{where})^{k} term"


def diff_printed_q(record: CaseRecord, env: dict, q_op: DiffOp) -> list:
    if not record.printed_Q:
        return []
    exprs = _printed_q_expressions(record.family, record.degree)
    doc = _Q_DOC.get((record.family, record.degree))
    diffs = []
    for k in range(record.degree + 1):
        want = eval_ratfunc(exprs[f"q{k}"], env)
        got = q_op.coeff(k)
        if want != got:
            diffs.append({
                "case": record.id, "target": "Q",
                "entry": f"companion coefficient q{k}",
                "printed": str(want), "computed": str(got),
                "doc": doc,
            })
    return diffs


# --------------------------------------------------------------------------
# verification


@dataclass
class VerificationVerdict:
    case_id: str
    commutator_zero: bool
    factorization_equal: bool
    basis_annihilated: list
    printed_diffs: list
    wronskian: dict | None
    series_checks: list
    ghe_check: dict | None
    notes: list

    @property
    def passed(self) -> bool:
        basics = self.commutator_zero and self.factorization_equal
        basis_ok = all(b["ok"] for b in self.basis_annihilated)
        series_ok = all(s["ok"] for s in self.series_checks)
        wron_ok = self.wronskian is None or self.wronskian["ok"]
        ghe_ok = self.ghe_check is None or self.ghe_check["ok"]
        return basics and basis_ok and series_ok and wron_ok and ghe_ok


@dataclass
class NonCommutingVerdict:
    case_id: str
    residual_nonzero_polynomial: bool
    trivial_when_beta1_zero: bool
    notes: list
    printed_diffs: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.residual_nonzero_polynomial and self.trivial_when_beta1_zero


def _verify_no_nontrivial(record: CaseRecord, env: dict):
    p, q = build_case(record, env)
    rep = residual(p, q)
    nonzero_poly = (not rep.commutes) and rep.residual.is_polynomial() \
        and not rep.residual.is_zero
    trivial_env = dict(env)
    trivial_env["beta1"] = ZERO
    p0_, q0_ = build_case(record, trivial_env)
    trivial_ok = commutator(p0_, q0_).is_zero
    q_diffs = diff_printed_q(record, env, q)
    return NonCommutingVerdict(
        case_id=record.id,
        residual_nonzero_polynomial=nonzero_poly,
        trivial_when_beta1_zero=trivial_ok,
        notes=list(record.notes),
        printed_diffs=q_diffs,
    )


def _series_check(record: CaseRecord, env: dict, truncations=(10, 20, 40),
                  points: int = 8, tol: float = 1e-10,
                  radius=None) -> list:
    """Frobenius residual protocol for a series-marked record."""
    info = record.series
    overrides = {k: eval_scalar(v, env) for k, v in
                 (info.get("overrides") or {}).items()}
    full = resolve_env(record, {k: env[k] for k in env}, overrides)
    p, q = build_case(record, full)
    l_op = compose(q, p)
    x0 = eval_scalar(info.get("x0", "0"), full)
    rho = eval_scalar(info.get("exponent", "0"), full)
    if radius is None:
        radius = _series_radius(p, x0)
    sols = []
    for factor in (q, p):
        factor_monic = factor.scale(factor.leading.inverse()) \
            if not factor.is_monic() else factor
        sol = frobenius_series(factor_monic, x0, rho, max(truncations))
        sols += [sol.truncated(n) for n in truncations]
    results = series_residuals(l_op, sols, radius, points)
    checks = []
    n = len(truncations)
    for label, start in (("Q", 0), ("P", n)):
        residuals = [res.max_residual for res in results[start:start + n]]
        decreasing = all(residuals[i] > residuals[i + 1]
                         for i in range(len(residuals) - 1))
        # a terminating series is an exact solution: every truncation gives
        # the same magnitude at the evaluation noise floor
        at_floor = max(residuals) <= 1e-25
        ok = residuals[-1] <= tol and (decreasing or at_floor)
        checks.append({
            "factor": label, "truncations": list(truncations),
            "residuals": residuals, "radius": str(radius), "ok": bool(ok),
            "approx": True,
        })
    return checks


def _series_radius(p: DiffOp, x0: FieldElement):
    """One tenth of the distance to the nearest other finite singularity
    (default distance 1 when there is none); exact rational for the real
    singularities of the catalog.  P is monic, so its finite singular points
    are the roots of the lcm of its reduced coefficients' denominators: the
    form of DiffOp(p.coeffs), since a product's own form may carry factors
    that cancel."""
    best = None
    den = over_common_denominator(DiffOp(p.coeffs))[1]
    for location, _mult in poly_roots(den)[0]:
        if location == x0:
            continue
        delta = location - x0
        if not delta.is_rational:
            continue
        dist = abs(delta.ar)
        if best is None or dist < best:
            best = dist
    if best is None:
        best = Q(1)
    return best / 10


def verify_case(record: CaseRecord, env: dict | None = None, seed: int = 0,
                draw_index: int = 0, with_series: bool = True,
                truncations=(10, 20, 40), radius=None):
    """Full verdict for one record at concrete parameters.

    env carries the free parameters and companion constants (catalog labels);
    when omitted, an admissible draw is taken from the seed.  The draw is
    built once: the verdict reuses the resolved env, the basis functions and
    the Wronskian value that accepting it built.  With an explicit env, the
    basis and the Wronskian are built here.
    """
    draw = None
    if env is None:
        draw = _draw(record, seed, draw_index)
        full = draw.full
    else:
        full = resolve_env(record, env)
    if record.kind == "no_nontrivial":
        return _verify_no_nontrivial(record, full)
    verdict = _verify_once(record, full, draw, with_series=with_series,
                           truncations=truncations, radius=radius)
    if record.symmetric:
        # the mirrored branch swaps alpha and beta; the operator only sees
        # alpha*beta and alpha+beta, but the swapped orientation is run too;
        # build_case derives epsilon from the swapped pair
        swapped = dict(full)
        swapped["alpha"], swapped["beta"] = full["beta"], full["alpha"]
        p_s, q_s = build_case(record, swapped)
        commutes = commutator(p_s, q_s).is_zero
        verdict.commutator_zero &= commutes
        verdict.factorization_equal &= commutes
    return verdict


def _verify_once(record: CaseRecord, full: dict, draw: _Draw | None,
                 with_series: bool, truncations,
                 radius=None) -> VerificationVerdict:
    p, q = build_case(record, full)
    l_qp = compose(q, p)
    commutes = commutator(p, q).is_zero
    if draw is None:
        # built lazily, so a failing basis function raises where it is used
        funcs = (_basis_function(d, full)
                 for d in record.basis_P + record.basis_Q)
    else:
        funcs = iter(draw.funcs)
    basis_results = []
    closed_forms = []
    for label, op, descriptors in (("P", p, record.basis_P),
                                   ("Q", q, record.basis_Q)):
        for _ in descriptors:
            f = next(funcs)
            closed_forms.append(f)
            by_factor = annihilates(op, f)
            by_l = annihilates(l_qp, f)
            basis_results.append({
                "factor": label,
                "function": str(f),
                "exact": True,
                "ok": bool(by_factor and by_l),
            })
    printed = diff_printed_l(record, full, l_qp)
    printed += diff_printed_q(record, full, q)
    for doc_key in record.docs:
        if not any(d.get("doc") == doc_key for d in printed):
            printed.append({
                "case": record.id, "target": "note", "entry": "documented",
                "printed": "", "computed": "",
                "doc": doc_key,
            })
    wronskian = None
    if closed_forms and len(closed_forms) == l_qp.order:
        value = (wronskian_numeric(closed_forms, complex(1 / 3))
                 if draw is None else draw.wronskian)
        wronskian = {"point": "1/3", "value": abs(value),
                     "ok": bool(abs(value) > 1e-8)}
    series_checks = []
    if with_series and record.series is not None:
        series_checks = _series_check(record, full, truncations=truncations,
                                      radius=radius)
    ghe_check = _ghe_check(record, full, p, q) if record.ghe else None
    return VerificationVerdict(
        case_id=record.id,
        commutator_zero=commutes,
        factorization_equal=commutes,
        basis_annihilated=basis_results,
        printed_diffs=printed,
        wronskian=wronskian,
        series_checks=series_checks,
        ghe_check=ghe_check,
        notes=list(record.notes),
    )


def _ghe_check(record: CaseRecord, env: dict, p: DiffOp, q: DiffOp) -> dict:
    """Exponential substitution of the degree-2 companion.

    With the companion normalized monic (beta1 = 0 so Q/beta2 = P + mu) and
    A^2 = -mu, conjugating by e^{A x} must produce the published
    three-regular-one-irregular form: first-order coefficient p1 + 2A and
    zeroth coefficient (b2 x^2 + b1 x + b0) / (x(x-1)(x-a)).
    """
    from .poly import LaurentPolynomial, P_X, poly_x_minus

    a_val = (-env["mu"]).sqrt()
    q_monic = q.scale(q.leading.inverse())
    transformed = gauge_transform(q_monic, LaurentPolynomial({1: a_val}))
    kappa_ok = (transformed.coeff(1) - p.coeff(1)
                == RationalFunction.constant(2 * a_val))
    aa, mu = env["a"], env["mu"]
    alpha, beta = env["alpha"], env["beta"]
    gamma, delta, eps = env["gamma"], env["delta"], env["epsilon"]
    qq = env["q"]
    a0 = -qq
    a1 = mu * aa + alpha * beta
    a2 = -mu * (aa + 1)
    b0 = a_val * aa * gamma + a0
    b1 = a_val * aa * (a_val - delta - gamma) - a_val * (eps + gamma) + a1
    b2 = -a_val * a_val * (aa + 1) + a_val * (alpha + beta + 1) + a2
    den = P_X * poly_x_minus(ONE) * poly_x_minus(aa)
    want = RationalFunction(Polynomial([b0, b1, b2]), den)
    zero_ok = transformed.coeff(0) == want
    return {"kappa": str(2 * a_val), "ok": bool(kappa_ok and zero_ok)}


# --------------------------------------------------------------------------
# whole-catalog run


def _crash_location(exc: Exception) -> str:
    """file:line of the innermost heunops frame that the exception left
    (verify_all's own frame is always among them)."""
    package = Path(__file__).parent
    tb = exc.__traceback__
    while tb is not None:
        path = Path(tb.tb_frame.f_code.co_filename)
        if path.parent == package:
            location = f"heunops/{path.name}:{tb.tb_lineno}"
        tb = tb.tb_next
    return location


def verify_all(seed: int = 0, draws: int = 3, with_series: bool = True,
               truncations=(10, 20, 40), cases: list | None = None) -> dict:
    """Run the whole catalog; failures are data, not exceptions."""
    records = cases if cases is not None else enumerate_cases()
    results = []
    diffs = []
    seen_diff_keys = set()
    for record in records:
        for index in range(draws):
            run_series = with_series and index == 0
            try:
                verdict = verify_case(record, seed=seed, draw_index=index,
                                      with_series=run_series,
                                      truncations=truncations)
                entry = {
                    "case": record.id, "draw": index, "kind": record.kind,
                    "passed": bool(verdict.passed),
                }
                if isinstance(verdict, VerificationVerdict):
                    entry["commutator_zero"] = verdict.commutator_zero
                    entry["factorization_equal"] = verdict.factorization_equal
                    entry["basis_checked"] = len(verdict.basis_annihilated)
                    if verdict.wronskian:
                        entry["wronskian"] = {
                            "magnitude": verdict.wronskian["value"],
                            "approx": True}
                    if verdict.series_checks:
                        entry["series"] = [
                            {"factor": c["factor"], "residuals": c["residuals"],
                             "ok": c["ok"], "approx": True}
                            for c in verdict.series_checks]
                    if verdict.ghe_check:
                        entry["ghe_ok"] = verdict.ghe_check["ok"]
                    new_diffs = verdict.printed_diffs
                else:
                    entry["residual_nonzero_polynomial"] = \
                        verdict.residual_nonzero_polynomial
                    entry["trivial_when_beta1_zero"] = \
                        verdict.trivial_when_beta1_zero
                    new_diffs = verdict.printed_diffs
                # union over draws: a special draw can make a wrong entry
                # match by coincidence, so every draw contributes
                for diff in new_diffs:
                    key = (diff["case"], diff["target"], diff["entry"])
                    if key not in seen_diff_keys:
                        seen_diff_keys.add(key)
                        diffs.append(diff)
            except Exception as exc:  # failures are report data
                entry = {"case": record.id, "draw": index,
                         "kind": record.kind, "passed": False,
                         "error": f"{type(exc).__name__}: {exc}",
                         "error_kind": "crash",
                         "location": _crash_location(exc)}
            results.append(entry)
    documented = sorted({d["doc"] for d in diffs if d.get("doc")})
    missing_docs = [key for key in DOCUMENTED_DISCREPANCIES
                    if key not in documented]
    summary = {
        "version": CATALOG_VERSION,
        "seed": seed,
        "cases": len(records),
        "runs": len(results),
        "passed": sum(1 for r in results if r["passed"]),
        "failed": sum(1 for r in results if not r["passed"]),
        "documented_discrepancies": {
            key: DOCUMENTED_DISCREPANCIES[key] for key in documented},
        "undocumented_diff_entries": [d for d in diffs if not d.get("doc")],
        "missing_documented": missing_docs,
    }
    return {"results": results, "printed_diffs": diffs, "summary": summary}
