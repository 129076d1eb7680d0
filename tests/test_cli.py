"""CLI surface: subcommands, exit codes, JSON round trips."""

import json

from heunops.cli import EXIT_CRASH, EXIT_FALSIFIED, main
from heunops import serialize as ser
from heunops.field import fe
from heunops.poly import Polynomial, poly_x_minus
from heunops.ratfunc import RationalFunction


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_families_listing(capsys):
    code, out, _ = run_cli(capsys, "families", "--format", "text")
    assert code == 0
    for family in ("heun", "confluent", "triconfluent"):
        assert family in out


def test_semicommute_published_instance(capsys):
    code, out, _ = run_cli(
        capsys, "semicommute", "--family", "heun", "--degree", "1",
        "--params", "a=2,q=0,alpha=0,beta=1,gamma=0,delta=0",
        "--beta1", "1", "--beta0", "0")
    assert code == 0
    op = ser.decode_diffop(json.loads(out))
    assert op.coeff(0) == RationalFunction(Polynomial([fe(1)]),
                                           poly_x_minus(fe(2)))
    assert op.coeff(1) == RationalFunction.constant(fe(1))


def test_semicommute_scalar_multiple(capsys):
    code, out, _ = run_cli(
        capsys, "semicommute", "--family", "heun", "--degree", "2",
        "--params", "a=2,q=1/3,alpha=1/2,beta=1/3,gamma=1/2,delta=1/2",
        "--beta2", "3", "--beta1", "0", "--beta0", "0")
    assert code == 0
    q_op = ser.decode_diffop(json.loads(out))
    code, out, _ = run_cli(
        capsys, "build", "--family", "heun",
        "--params", "a=2,q=1/3,alpha=1/2,beta=1/3,gamma=1/2,delta=1/2")
    p_op = ser.decode_diffop(json.loads(out))
    assert q_op == p_op.scale(fe(3))


def test_malformed_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "semicommute", "--family", "heun",
                           "--degree", "1", "--params", "a=2", "--beta1", "1")
    assert code == 2
    assert "error" in err


def test_residual_and_local_points(capsys):
    args = ["--family", "triconfluent", "--degree", "1",
            "--params", "sigma=1,alpha=1,q=0", "--beta1", "1", "--beta0", "0"]
    code, out, _ = run_cli(capsys, "residual", *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["commutes"] is False
    code, out, _ = run_cli(capsys, "local-points", *args)
    assert code == 0
    points = json.loads(out)["local_points"]
    assert points and all(p.get("approx") for p in points)


def test_compose_and_gauge_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "build", "--family", "triconfluent",
                           "--params", "sigma=1,alpha=1/2,q=1/3")
    op_json = out
    path = tmp_path / "op.json"
    path.write_text(op_json)
    code, out, _ = run_cli(capsys, "compose", "--op-a", f"@{path}",
                           "--op-b", op_json.strip())
    assert code == 0
    composed = ser.decode_diffop(json.loads(out))
    assert composed.order == 4
    code, out, _ = run_cli(capsys, "gauge", "--op", op_json.strip(),
                           "--exponent", "2*x")
    assert code == 0
    assert ser.decode_diffop(json.loads(out)).order == 2


def test_verify_case_pass(capsys):
    code, out, _ = run_cli(capsys, "verify-case", "--id", "heun.n1.case3")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


def test_verify_case_negative_override(capsys):
    code, out, _ = run_cli(capsys, "verify-case", "--id", "heun.n1.case1",
                           "--override", "beta=2")
    assert code == 1
    payload = json.loads(out)
    assert payload["commutator_zero"] is False


def test_verify_case_unknown_id(capsys):
    code, _, err = run_cli(capsys, "verify-case", "--id", "nope")
    assert code == 2


def test_counterexample_gorder(capsys):
    code, out, _ = run_cli(capsys, "counterexample-gorder")
    assert code == 0
    payload = json.loads(out)
    assert payload["reproduced"] is True
    printed = ser.decode_diffop(payload["printed_recursion_commutator"])
    assert printed.coeff(0) == RationalFunction.constant(fe(-1, 2))
    assert printed.coeff(1) == RationalFunction.constant(fe(1))


def test_emitted_json_reparses_to_equal_value(capsys):
    code, out, _ = run_cli(capsys, "build", "--family", "biconfluent",
                           "--params", "tau=1/2,nu=0,alpha=1/3,q=1/4")
    op = ser.decode_diffop(json.loads(out))
    again = json.dumps(ser.encode_diffop(op))
    assert ser.decode_diffop(json.loads(again)) == op


def test_usage_error_exit_2(capsys):
    assert main(["bogus-subcommand"]) == 2


def test_verify_all_emits_json_lines(capsys, monkeypatch):
    # restrict to a cheap slice of the catalog to keep the test quick
    from heunops import catalog as cat

    subset = [cat.get_case("heun.n1.case3"), cat.get_case("heun.n2.case4")]
    original = cat.verify_all

    def patched(seed=0, truncations=(10, 20, 40), **kwargs):
        return original(seed=seed, truncations=truncations, cases=subset,
                        with_series=False)

    monkeypatch.setattr(cat, "verify_all", patched)
    code, out, _ = run_cli(capsys, "verify-all", "--seed", "5")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert "summary" in lines[-1]
    case_rows = [l for l in lines if "case" in l]
    assert len(case_rows) == 6  # 2 cases x 3 draws
    assert all(row["passed"] for row in case_rows)
    diff_rows = [l for l in lines if "diff" in l]
    assert any(l["diff"].get("doc") == "heun-n2-case4-order"
               for l in diff_rows)


def test_verify_all_text_marks_crashes(capsys, monkeypatch):
    from heunops import catalog as cat

    subset = [cat.get_case("heun.n1.case3")]
    original = cat.verify_all

    def broken_build(record, env):
        raise ZeroDivisionError("planted")

    def patched(seed=0, truncations=(10, 20, 40), **kwargs):
        return original(seed=seed, truncations=truncations, cases=subset,
                        with_series=False, draws=1)

    monkeypatch.setattr(cat, "verify_all", patched)
    monkeypatch.setattr(cat, "build_case", broken_build)
    code, out, _ = run_cli(capsys, "verify-all", "--format", "text")
    assert code == EXIT_CRASH
    first = out.splitlines()[0]
    assert first.startswith("CRASH  heun.n1.case3 draw 0 ")
    assert "ZeroDivisionError: planted at heunops/catalog.py:" in first


def test_verify_all_exit_codes_separate_crash_from_falsified(capsys,
                                                             monkeypatch):
    from heunops import catalog as cat

    subset = [cat.get_case("heun.n1.case3"), cat.get_case("heun.n1.case4")]
    original = cat.verify_all
    original_verify_case = cat.verify_case

    def patched(seed=0, truncations=(10, 20, 40), **kwargs):
        return original(seed=seed, truncations=truncations, cases=subset,
                        with_series=False, draws=1)

    def falsified(record, **kwargs):
        verdict = original_verify_case(record, **kwargs)
        verdict.commutator_zero = False
        return verdict

    monkeypatch.setattr(cat, "verify_all", patched)
    monkeypatch.setattr(cat, "verify_case", falsified)
    code, out, _ = run_cli(capsys, "verify-all", "--format", "text")
    assert code == EXIT_FALSIFIED
    assert "CRASH" not in out and out.startswith("FAIL  heun.n1.case3")

    def crash_on_case4(record, **kwargs):
        if record.id == "heun.n1.case4":
            raise ZeroDivisionError("planted")
        return falsified(record, **kwargs)

    monkeypatch.setattr(cat, "verify_case", crash_on_case4)
    code, out, _ = run_cli(capsys, "verify-all", "--format", "text")
    assert code == EXIT_CRASH
    assert out.startswith("FAIL  heun.n1.case3")
    assert "CRASH  heun.n1.case4" in out
