"""Catalog registry and verification pipeline."""

import dataclasses
from fractions import Fraction

from heunops import catalog as cat, cli
from heunops.field import fe, ZERO
from heunops.diffop import DiffOp, commutator, compose
from heunops.exprs import eval_scalar
from heunops.funcalg import annihilates
from heunops.poly import Polynomial, poly_x_minus
from heunops.ratfunc import RationalFunction
from heunops.semicommute import build_q2


def test_enumeration_size_and_uniqueness():
    records = cat.enumerate_cases()
    assert len(records) >= 30
    ids = [r.id for r in records]
    assert len(ids) == len(set(ids))
    commuting = [r for r in records if r.kind != "no_nontrivial"]
    assert len(commuting) >= 30


def test_referrals_are_links():
    records = cat.enumerate_cases()
    by_id = {r.id: r for r in records}
    referrals = [r for r in records if r.kind == "referral"]
    assert referrals
    for r in referrals:
        assert r.referral["target"] in by_id
        assert r.printed_L is None  # links carry no duplicated tables


def test_case3_is_pure_second_derivative():
    rec = cat.get_case("heun.n1.case3")
    env = cat.resolve_env(rec, cat.draw_env(rec, 0, 0))
    p, _ = cat.build_case(rec, env)
    assert p == DiffOp.derivative_op(2)


def test_triconfluent_commuting_constraint():
    rec = cat.get_case("triconfluent.n2.case1")
    assert rec.constraint == {"beta1": "sigma*beta2"}
    env = cat.resolve_env(rec, cat.draw_env(rec, 0, 0))
    assert env["beta1"] == env["sigma"] * env["beta2"]


def test_double_confluent_degree1_parameter_bindings():
    rec = cat.get_case("dconfluent.n1.case1")
    env = cat.resolve_env(rec, {"tau": fe(3), "beta0": fe(1), "beta1": fe(2)})
    assert env["alpha"] == fe(3, 2)
    assert env["nu"] == ZERO
    assert env["q"] == fe(3, 2) - fe(9, 4)


def test_verify_published_elementary_case():
    # gamma=q=0, alpha=delta=2, beta=1, a=3, beta1=1, beta0=1: the basis is
    # {1/((x-1)(x-3)), x/((x-1)(x-3)), e^{-x}/((x-1)(x-3))}
    rec = cat.get_case("heun.n1.case4")
    env = {"a": fe(3), "beta1": fe(1), "beta0": fe(1)}
    verdict = cat.verify_case(rec, env=env)
    assert verdict.passed
    assert verdict.commutator_zero and verdict.factorization_equal
    assert len(verdict.basis_annihilated) == 3
    assert verdict.wronskian["ok"]

    full = cat.resolve_env(rec, env)
    p, q = cat.build_case(rec, full)
    l_op = compose(q, p)
    den = poly_x_minus(fe(1)) * poly_x_minus(fe(3))
    from heunops.funcalg import ExpMonomial, FunctionSum
    from heunops.poly import LaurentPolynomial, P_X
    base = RationalFunction(Polynomial([fe(1)]), den)
    for f in (FunctionSum.single(base),
              FunctionSum.single(base * RationalFunction.from_polynomial(P_X)),
              FunctionSum([ExpMonomial(base, ZERO,
                                       LaurentPolynomial({1: fe(-1)}))])):
        assert annihilates(l_op, f)


def test_degenerate_flat_operator_case():
    # the pure-d^2 record composes to beta2 d^4 + beta1 d^3 + beta0 d^2
    rec = cat.get_case("heun.n2.case4")
    env = {"a": fe(2), "beta2": fe(2), "beta1": fe(3), "beta0": fe(5)}
    full = cat.resolve_env(rec, env)
    p, q = cat.build_case(rec, full)
    l_op = compose(q, p)
    assert l_op == DiffOp([fe(0), fe(0), fe(5), fe(3), fe(2)])
    verdict = cat.verify_case(rec, env=env)
    assert verdict.passed
    docs = {d.get("doc") for d in verdict.printed_diffs}
    assert "heun-n2-case4-order" in docs


def test_negative_control_violating_constraint():
    rec = cat.get_case("triconfluent.n2.case1")
    env = cat.draw_env(rec, 0, 0)
    full = cat.resolve_env(rec, env)
    full["beta1"] = full["beta1"] + fe(1)  # break beta1 = sigma*beta2
    p, _ = cat.build_case(rec, full)
    spec = cat.construction_spec(rec.family, 2, full)
    q = build_q2(p, spec)
    assert not commutator(p, q).is_zero


def test_negative_control_overridden_parameter():
    # moving the accessory weight off the commuting locus falsifies the case
    rec = cat.get_case("heun.n1.case1")
    env = cat.draw_env(rec, 0, 0)
    full = cat.resolve_env(rec, env)
    full["beta"] = fe(2)
    full["epsilon"] = (full["alpha"] + full["beta"] + 1
                       - full["delta"] - full["gamma"])
    p, q = cat.build_case(rec, full)
    assert not commutator(p, q).is_zero


def test_commutator_decides_as_the_two_products_did(monkeypatch, capsys):
    """[P, Q] = 0 exactly when Q∘P == P∘Q, the test verify_case ran before:
    at draws 0-2 of every record (seed 0) and on the alpha<->beta mirror of
    symmetric records, which commute, and on falsification controls, which
    do not.  A control moves a record's first numeric fixed parameter by +1
    through verify-case --override; the spy records the record and env that
    the CLI hands to verify_case."""
    decisions = []

    def check(record, full):
        envs = [full]
        if record.symmetric:
            swapped = dict(full)
            swapped["alpha"], swapped["beta"] = full["beta"], full["alpha"]
            envs.append(swapped)
        for env in envs:
            p, q = cat.build_case(record, env)
            zero = commutator(p, q).is_zero
            assert zero == (compose(q, p) == compose(p, q)), record.id
            decisions.append(zero)

    for record in cat.enumerate_cases():
        for draw in range(3):
            check(record, cat.resolve_env(record, cat.draw_env(record, 0, draw)))
    assert True in decisions and False in decisions

    handed = []
    verify_case = cat.verify_case

    def spy(record, env=None, seed=0, **_):
        handed.append((record, env))
        return verify_case(record, env=env, seed=seed, with_series=False)

    monkeypatch.setattr(cat, "verify_case", spy)
    decisions.clear()
    for record in cat.enumerate_cases():
        numeric = []
        for name, expr in record.params.items():
            try:
                numeric.append((name, Fraction(expr)))
            except ValueError:
                pass
        if not numeric:
            continue
        name, value = numeric[0]
        cli.main(["verify-case", "--id", record.id, "--seed", "0",
                  "--override", f"{name}={value + 1}"])
        overridden, env = handed[-1]
        assert name not in overridden.params
        check(overridden, cat.resolve_env(overridden, env))
    capsys.readouterr()
    assert len(handed) == 31 and False in decisions


def test_verify_all_deterministic_across_seeds():
    records = [cat.get_case(i) for i in
               ("heun.n1.case1", "heun.n2.case4", "triconfluent.n1.case1")]
    r1 = cat.verify_all(seed=1, draws=2, with_series=False, cases=records)
    r2 = cat.verify_all(seed=2, draws=2, with_series=False, cases=records)
    pattern1 = [(row["case"], row["passed"]) for row in r1["results"]]
    pattern2 = [(row["case"], row["passed"]) for row in r2["results"]]
    assert pattern1 == pattern2
    assert all(ok for _, ok in pattern1)


def test_verify_all_empty_catalog():
    report = cat.verify_all(cases=[])
    assert report["results"] == []
    assert report["summary"]["runs"] == 0


def test_no_nontrivial_records():
    for case_id in ("triconfluent.n1.case1", "rtriconfluent.n1.case1"):
        verdict = cat.verify_case(cat.get_case(case_id), seed=0)
        assert verdict.passed
        assert verdict.residual_nonzero_polynomial
        assert verdict.trivial_when_beta1_zero


def test_commuting_companion_is_shifted_operator():
    # generic degree-2 commuting records: Q - beta2 * P is a constant
    for case_id in ("heun.n2.case1", "confluent.n2.case1",
                    "biconfluent.n2.case1", "dconfluent.n2.case1",
                    "triconfluent.n2.case1", "rtriconfluent.n2.case1"):
        rec = cat.get_case(case_id)
        env = cat.resolve_env(rec, cat.draw_env(rec, 3, 0))
        p, q = cat.build_case(rec, env)
        probe = q - p.scale(env["beta2"])
        assert probe.order == 0
        assert probe.coeff(0).is_constant()


def test_series_records_pass_reference_protocol():
    rec = cat.get_case("heun.n2.case1")
    ref = {k: eval_scalar(v) for k, v in rec.series["reference"].items()}
    checks = cat._series_check(rec, cat.resolve_env(rec, ref))
    assert all(c["ok"] for c in checks)
    q_check = next(c for c in checks if c["factor"] == "Q")
    assert q_check["residuals"][-1] <= 1e-10


def test_series_check_with_singular_point_near_one():
    # a = 3/4 sits next to the singular point 1 (seed 101 draws it)
    rec = cat.get_case("heun.n2.case1")
    env = cat.draw_env(rec, 0, 0)
    env["a"] = fe(3, 4)
    verdict = cat.verify_case(rec, env=env)
    assert verdict.passed
    assert verdict.series_checks and all(c["ok"] for c in verdict.series_checks)


def test_ghe_reduction_check():
    rec = cat.get_case("heun.n2.case1")
    ref = {k: eval_scalar(v) for k, v in rec.series["reference"].items()}
    full = cat.resolve_env(rec, ref)
    p, q = cat.build_case(rec, full)
    result = cat._ghe_check(rec, full, p, q)
    assert result["ok"] and result["kappa"] == "2"


def test_documented_discrepancies_all_surface():
    report = cat.verify_all(seed=0, draws=2, with_series=False)
    assert not report["summary"]["missing_documented"]
    docs = {d.get("doc") for d in report["printed_diffs"] if d.get("doc")}
    assert docs == set(cat.DOCUMENTED_DISCREPANCIES)


def test_verify_all_reports_a_crash_as_a_crash(monkeypatch):
    def broken_build(record, env):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(cat, "build_case", broken_build)
    records = [cat.get_case("heun.n1.case4"), cat.get_case("heun.n1.case3")]
    report = cat.verify_all(seed=0, draws=1, with_series=False, cases=records)
    assert report["summary"]["failed"] == 2
    for entry in report["results"]:
        assert entry["passed"] is False
        assert entry["error"] == "ZeroDivisionError: planted"
        assert entry["error_kind"] == "crash"
        # the innermost heunops frame is the call into the patched builder
        path, line = entry["location"].split(":")
        assert path == "heunops/catalog.py"
        with open(cat.__file__) as fh:
            assert "build_case(" in fh.read().splitlines()[int(line) - 1]
    assert "commutator_zero" not in report["results"][0]


def test_verify_all_decided_entries_carry_no_error_kind():
    records = [cat.get_case("heun.n1.case3")]
    report = cat.verify_all(seed=0, draws=1, with_series=False, cases=records)
    (entry,) = report["results"]
    assert entry["passed"] and "error_kind" not in entry


def test_a_drawn_verdict_builds_its_draw_once(monkeypatch):
    rec = cat.get_case("heun.n2.case2")
    assert len(rec.basis_P + rec.basis_Q) == 4
    calls = {}

    def counted(name):
        original = getattr(cat, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cat, name, wrapper)

    names = ("resolve_env", "_basis_function", "wronskian_numeric")
    for name in names:
        counted(name)

    def count(run):
        calls.update(dict.fromkeys(names, 0))
        result = run()
        return result, dict(calls)

    for d in range(3):
        env, by_draw = count(lambda: cat.draw_env(rec, 0, d))
        drawn, by_verdict = count(lambda: cat.verify_case(
            rec, seed=0, draw_index=d, with_series=False))
        assert by_verdict == by_draw
        explicit = cat.verify_case(rec, env=env, seed=0, draw_index=d,
                                   with_series=False)
        assert drawn.wronskian is not None
        # the dicts compare floats with ==, so the Wronskian is bit for bit
        assert dataclasses.asdict(drawn) == dataclasses.asdict(explicit)
