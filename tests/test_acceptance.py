"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines (pytest captures stdout; -rA replays it for passed tests).
"""

import random
import time

import pytest

from heunops import catalog as cat
from heunops.field import fe, ZERO, ONE
from heunops.diffop import DiffOp, commutator, compose, gauge_transform
from heunops.exprs import eval_scalar
from heunops.funcalg import apply_op, wronskian_numeric
from heunops.poly import LaurentPolynomial, P_ONE, P_X, Polynomial, poly_x_minus
from heunops.ratfunc import RationalFunction
from heunops.semicommute import (SemiCommuteSpec, build_q1, build_q2,
                                 counterexample_report, residual)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"{status} {criterion}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def records():
    return cat.enumerate_cases()


def test_criterion_1_exact_commutation_whole_catalog(records):
    """Every record commutes exactly at 3 seeded draws, in under 10 s."""
    targets = [r for r in records if r.kind != "no_nontrivial"]
    assert len(targets) >= 30
    # seconds per stage, so that a slow run names the stage that slowed
    stages = dict.fromkeys(("draw/resolve", "build", "commutator",
                            "compositions"), 0.0)
    t0 = time.perf_counter()
    checked = 0
    for rec in targets:
        for draw in range(3):
            marks = [time.perf_counter()]
            env = cat.resolve_env(rec, cat.draw_env(rec, 0, draw))
            marks.append(time.perf_counter())
            p, q = cat.build_case(rec, env)
            marks.append(time.perf_counter())
            assert commutator(p, q).is_zero, f"{rec.id} draw {draw}"
            marks.append(time.perf_counter())
            assert compose(q, p) == compose(p, q), \
                f"{rec.id} draw {draw}"
            marks.append(time.perf_counter())
            for name, start, end in zip(stages, marks, marks[1:]):
                stages[name] += end - start
            checked += 1
    elapsed = time.perf_counter() - t0
    split = ", ".join(f"{name} {s:.1f}s" for name, s in stages.items())
    report("criterion 1 (exact commutation)",
           checked == 3 * len(targets) and elapsed < 10.0,
           f"{len(targets)} records x 3 draws in {elapsed:.1f}s ({split})")


def test_criterion_2_semicommutation_structure():
    """100 random monic operators: companions semi-commute and the degree-2
    companion is beta2*P + beta1*(d + p1/2) + const."""

    def rand_rf4(rng):
        num = Polynomial([fe(rng.randint(-3, 3), rng.randint(1, 4))
                          for _ in range(rng.randint(1, 5))])
        den = Polynomial([fe(rng.randint(-3, 3), rng.randint(1, 4))
                          for _ in range(rng.randint(0, 4))] + [fe(1)])
        if num.is_zero:
            num = P_ONE
        return RationalFunction(num, den)

    rng = random.Random(2024)
    count = 0
    for _ in range(100):
        p = DiffOp([rand_rf4(rng), rand_rf4(rng), fe(1)])
        b0 = fe(rng.randint(-3, 3), rng.randint(1, 3))
        b1 = fe(rng.randint(-3, 3), rng.randint(1, 3))
        b2 = fe(rng.randint(1, 3), rng.randint(1, 3))
        q1 = build_q1(p, SemiCommuteSpec(degree=1, beta0=b0, beta1=b1))
        c1 = commutator(p, q1)
        assert c1.is_zero or c1.order == 0
        q2 = build_q2(p, SemiCommuteSpec(degree=2, beta0=b0, beta1=b1,
                                         beta2=b2))
        c2 = commutator(p, q2)
        assert c2.is_zero or c2.order == 0
        half_p1 = p.coeff(1) * fe(1, 2)
        probe = q2 - p.scale(b2) - DiffOp([half_p1 * b1,
                                           RationalFunction.constant(b1)])
        assert probe.order <= 0
        assert probe.is_zero or probe.coeff(0).is_constant()
        count += 1
    report("criterion 2 (semi-commutation structure)", count == 100,
           "100 random operators, degree-1 and degree-2 companions")


def test_criterion_3_closed_form_annihilation(records):
    """Every closed-form basis function is annihilated by its factor and
    by L, in exact arithmetic."""
    functions = 0
    cases = 0
    for rec in records:
        if rec.kind == "no_nontrivial" or not (rec.basis_P or rec.basis_Q):
            continue
        env = cat.resolve_env(rec, cat.draw_env(rec, 0, 0))
        p, q = cat.build_case(rec, env)
        l_op = compose(q, p)
        for factor, descriptors in ((p, rec.basis_P), (q, rec.basis_Q)):
            for desc in descriptors:
                f = cat._basis_function(desc, env)
                assert apply_op(factor, f).is_zero, f"{rec.id}: factor"
                assert apply_op(l_op, f).is_zero, f"{rec.id}: L"
                functions += 1
        cases += 1
    report("criterion 3 (closed-form annihilation)",
           cases >= 25 and functions >= 75,
           f"{functions} basis functions over {cases} cases, all exact")


SERIES_IDS = ("heun.n2.case1", "confluent.n2.case1", "biconfluent.n2.case1",
              "dconfluent.n2.case1", "triconfluent.n2.case1",
              "rtriconfluent.n2.case1")


def test_criterion_4_series_verification():
    """Frobenius solution of Q at the origin: residual of L below 1e-10 at
    N = 40 and monotone decay over N in {10, 20, 40}; under 30 s total."""
    t0 = time.perf_counter()
    details = []
    for case_id in SERIES_IDS:
        rec = cat.get_case(case_id)
        ref = {k: eval_scalar(v) for k, v in rec.series["reference"].items()}
        if case_id == "heun.n2.case1":
            assert ref["a"] == fe(2) and ref["q"] == fe(1, 3)
            assert ref["beta0"] / ref["beta2"] == fe(-1)
        checks = cat._series_check(rec, cat.resolve_env(rec, ref),
                                   truncations=(10, 20, 40))
        q_check = next(c for c in checks if c["factor"] == "Q")
        r10, r20, r40 = q_check["residuals"]
        assert r40 <= 1e-10, f"{case_id}: residual {r40}"
        assert r10 > r20 > r40, f"{case_id}: no monotone decay"
        p_check = next(c for c in checks if c["factor"] == "P")
        assert p_check["ok"]
        details.append(f"{case_id} {r40:.1e}")
    elapsed = time.perf_counter() - t0
    report("criterion 4 (series verification)", elapsed < 30.0,
           f"{'; '.join(details)} in {elapsed:.1f}s")


def test_criterion_5_counterexample_reproduction():
    """P = d^2 - d - 1, beta1 = 1: the printed recursion leaves commutator
    d - 1/2 while the corrected construction commutes."""
    rep = counterexample_report()
    corrected_zero = rep["corrected_commutator"].is_zero
    printed = rep["printed_commutator"]
    printed_matches = printed == DiffOp([fe(-1, 2), fe(1)])
    report("criterion 5 (counterexample reproduction)",
           corrected_zero and printed_matches,
           "corrected commutes, printed recursion leaves d - 1/2")


def test_criterion_6_gauge_reduction_identity():
    """With mu = -1 (A = 1) the conjugated companion reproduces kappa = 2A
    and the published b0, b1, b2, exactly."""
    rec = cat.get_case("heun.n2.case1")
    ref = {k: eval_scalar(v) for k, v in rec.series["reference"].items()}
    full = cat.resolve_env(rec, ref)
    assert full["mu"] == fe(-1)
    p, q = cat.build_case(rec, full)
    a_val = (-full["mu"]).sqrt()
    assert a_val == ONE
    q_monic = q.scale(q.leading.inverse())
    transformed = gauge_transform(q_monic, LaurentPolynomial({1: a_val}))
    kappa_ok = (transformed.coeff(1) - p.coeff(1)
                == RationalFunction.constant(2 * a_val))
    a, mu, qq = full["a"], full["mu"], full["q"]
    alpha, beta = full["alpha"], full["beta"]
    gamma, delta, eps = full["gamma"], full["delta"], full["epsilon"]
    b0 = a_val * a * gamma + (-qq)
    b1 = (a_val * a * (a_val - delta - gamma) - a_val * (eps + gamma)
          + mu * a + alpha * beta)
    b2 = (-a_val * a_val * (a + 1) + a_val * (alpha + beta + 1)
          - mu * (a + 1))
    den = P_X * poly_x_minus(ONE) * poly_x_minus(a)
    want = RationalFunction(Polynomial([b0, b1, b2]), den)
    zero_ok = transformed.coeff(0) == want
    report("criterion 6 (gauge reduction identity)", kappa_ok and zero_ok,
           f"kappa = {2 * a_val}, b = ({b0}, {b1}, {b2})")


def test_criterion_7_no_nontrivial_degree1():
    """20 draws for each cubic-growth family: the degree-1 residual is a
    nonzero polynomial whenever beta1 != 0, and trivial at beta1 = 0."""
    checked = 0
    for case_id in ("triconfluent.n1.case1", "rtriconfluent.n1.case1"):
        rec = cat.get_case(case_id)
        for draw in range(20):
            env = cat.resolve_env(rec, cat.draw_env(rec, 0, draw))
            assert not env["beta1"].is_zero
            p, q = cat.build_case(rec, env)
            rep = residual(p, q)
            assert not rep.commutes, f"{case_id} draw {draw}"
            assert rep.residual.is_polynomial() and not rep.residual.is_zero
            trivial = dict(env)
            trivial["beta1"] = ZERO
            p2, q2 = cat.build_case(rec, trivial)
            assert commutator(p2, q2).is_zero
            checked += 1
    report("criterion 7 (no nontrivial degree-1 companions)", checked == 40,
           "20 draws per family, residual a nonzero polynomial")


def test_criterion_8_wronskian_independence(records):
    """Numeric Wronskian at x = 1/3 above 1e-8 for every full closed basis."""
    checked = 0
    worst = None
    for rec in records:
        if rec.kind == "no_nontrivial" or not (rec.basis_P and rec.basis_Q):
            continue
        env = cat.resolve_env(rec, cat.draw_env(rec, 0, 0))
        funcs = [cat._basis_function(d, env)
                 for d in rec.basis_P + rec.basis_Q]
        p, q = cat.build_case(rec, env)
        if len(funcs) != compose(q, p).order:
            continue
        value = abs(wronskian_numeric(funcs, complex(1 / 3)))
        assert value > 1e-8, f"{rec.id}: |W| = {value}"
        worst = value if worst is None else min(worst, value)
        checked += 1
    report("criterion 8 (Wronskian independence)", checked >= 24,
           f"{checked} bases, smallest |W(1/3)| = {worst:.3e}")


def test_criterion_9_published_diff_report(records):
    """verify_all's diff section lists the documented discrepancies and
    leaves no mismatch unreported."""
    result = cat.verify_all(seed=0, draws=2, with_series=False)
    docs_seen = {d.get("doc") for d in result["printed_diffs"] if d.get("doc")}
    all_documented = set(cat.DOCUMENTED_DISCREPANCIES) <= docs_seen
    none_missing = not result["summary"]["missing_documented"]
    # full disclosure: every diff entry records what was printed and what
    # was computed, so nothing is silently dropped
    disclosed = all(("printed" in d and "computed" in d and "entry" in d)
                    for d in result["printed_diffs"])
    extra = result["summary"]["undocumented_diff_entries"]
    report("criterion 9 (published-table diff report)",
           all_documented and none_missing and disclosed,
           f"{len(docs_seen)} documented discrepancy classes, "
           f"{len(extra)} additional entries, all disclosed")
