"""Command-line interface.

Subcommands: families, build, semicommute, residual, local-points, compose,
gauge, verify-case, verify-all, counterexample-gorder.  Exit codes: 0 all
checks pass, 1 a verification was falsified, 2 usage or parameter error,
3 a verify-all run crashed (raised instead of deciding; wins over 1).
All exact numbers in JSON output are strings; numeric values carry
"approx": true.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog as cat
from . import serialize as ser
from .exprs import ExprError, eval_exponent, parse_assignments
from .diffop import DiffOp, compose, gauge_transform
from .families import FAMILIES, PARAM_NAMES, ParameterError
from .semicommute import (GorderObstructionError, NotSemiCommutingError,
                          SemiCommuteSpec, build_q1, build_q2,
                          counterexample_report, residual)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_CRASH = 3


class CliError(Exception):
    pass


def _emit(payload, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        _emit_text(payload)


def _emit_text(payload, indent=""):
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                print(f"{indent}{key}:")
                _emit_text(value, indent + "  ")
            else:
                print(f"{indent}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                _emit_text(value, indent + "  ")
                print()
            else:
                print(f"{indent}{value}")
    else:
        print(f"{indent}{payload}")


def _load_operator(arg: str) -> DiffOp:
    """Operator from an inline JSON string or @file reference."""
    text = arg
    if arg.startswith("@"):
        with open(arg[1:], encoding="utf-8") as handle:
            text = handle.read()
    return ser.decode_diffop(json.loads(text))


def _operator_from_args(args) -> DiffOp:
    if not args.family or args.params is None:
        raise CliError("--family and --params are required")
    return FAMILIES[args.family].build(parse_assignments(args.params))


def _spec_from_args(args) -> SemiCommuteSpec:
    degree = args.degree
    values = parse_assignments(
        ",".join(f"b{k}={v}" for k, v in
                 (("0", args.beta0), ("1", args.beta1), ("2", args.beta2))
                 if v is not None))
    beta0 = values.get("b0", cat.ZERO)
    beta1 = values.get("b1", cat.ZERO)
    beta2 = values.get("b2", None)
    if degree == 2 and beta2 is None:
        raise CliError("--beta2 is required for degree 2")
    return SemiCommuteSpec(degree=degree, beta0=beta0, beta1=beta1,
                           beta2=beta2)


def cmd_families(args) -> int:
    listing = {family: ", ".join(names)
               for family, names in PARAM_NAMES.items()}
    _emit(listing, args.format)
    return EXIT_OK


def _emit_operator(op: DiffOp, fmt: str):
    if fmt == "text":
        print(op)
    else:
        _emit(ser.encode_diffop(op), fmt)


def cmd_build(args) -> int:
    op = _operator_from_args(args)
    _emit_operator(op, args.format)
    return EXIT_OK


def cmd_semicommute(args) -> int:
    op = _operator_from_args(args)
    spec = _spec_from_args(args)
    q = build_q1(op, spec) if args.degree == 1 else build_q2(op, spec)
    _emit_operator(q, args.format)
    return EXIT_OK


def _residual_report(args):
    op = _operator_from_args(args)
    spec = _spec_from_args(args)
    q = build_q1(op, spec) if args.degree == 1 else build_q2(op, spec)
    return residual(op, q)


def cmd_residual(args) -> int:
    report = _residual_report(args)
    _emit(ser.encode_residual_report(report), args.format)
    return EXIT_OK


def cmd_local_points(args) -> int:
    report = _residual_report(args)
    _emit({"commutes": report.commutes,
           "local_points": [ser.encode_local_point(p)
                            for p in report.local_points]}, args.format)
    return EXIT_OK


def cmd_compose(args) -> int:
    op_a = _load_operator(args.op_a)
    op_b = _load_operator(args.op_b)
    _emit_operator(compose(op_a, op_b), args.format)
    return EXIT_OK


def cmd_gauge(args) -> int:
    op = _load_operator(args.op)
    exponent = eval_exponent(args.exponent)
    _emit_operator(gauge_transform(op, exponent), args.format)
    return EXIT_OK


def _verdict_payload(verdict) -> dict:
    payload = {"case": verdict.case_id, "passed": verdict.passed}
    if isinstance(verdict, cat.VerificationVerdict):
        payload.update({
            "commutator_zero": verdict.commutator_zero,
            "factorization_equal": verdict.factorization_equal,
            "basis_annihilated": verdict.basis_annihilated,
            "printed_diffs": verdict.printed_diffs,
        })
        if verdict.wronskian:
            payload["wronskian"] = {"point": verdict.wronskian["point"],
                                    "magnitude": verdict.wronskian["value"],
                                    "approx": True,
                                    "ok": verdict.wronskian["ok"]}
        if verdict.series_checks:
            payload["series"] = verdict.series_checks
        if verdict.ghe_check:
            payload["gauge_reduction"] = verdict.ghe_check
    else:
        payload.update({
            "residual_nonzero_polynomial": verdict.residual_nonzero_polynomial,
            "trivial_when_beta1_zero": verdict.trivial_when_beta1_zero,
        })
    return payload


def cmd_verify_case(args) -> int:
    record = cat.get_case(args.id)
    env = None
    if args.override:
        env = cat.draw_env(record, args.seed, 0)
        overrides = parse_assignments(args.override)
        env.update(overrides)
        # overriding a fixed parameter bypasses the record's own values
        for name, value in overrides.items():
            if name in record.params:
                record = _record_with_param_override(record, name)
                env[name] = value
    radius = cat.Q(args.radius) if args.radius else None
    verdict = cat.verify_case(record, env=env, seed=args.seed,
                              truncations=_truncations(args), radius=radius)
    _emit(_verdict_payload(verdict), args.format)
    return EXIT_OK if verdict.passed else EXIT_FALSIFIED


def _record_with_param_override(record, name):
    import dataclasses

    params = dict(record.params)
    params.pop(name, None)
    free = dict(record.free)
    free[name] = {}
    return dataclasses.replace(record, params=params, free=free)


def _truncations(args):
    top = args.truncation
    steps = [top]
    while top % 2 == 0 and top > 10 and len(steps) < 3:
        top //= 2
        steps.append(top)
    return tuple(sorted(steps))


def cmd_verify_all(args) -> int:
    report = cat.verify_all(seed=args.seed, truncations=_truncations(args))
    if args.format == "json":
        for row in report["results"]:
            print(json.dumps(row, default=str))
        for diff in report["printed_diffs"]:
            print(json.dumps({"diff": diff}, default=str))
        print(json.dumps({"summary": report["summary"]}, default=str))
    else:
        for row in report["results"]:
            status = "pass" if row["passed"] else "FAIL"
            extra = ""
            if "error" in row:
                status = "CRASH"
                extra = f" ({row['error']} at {row['location']})"
            print(f"{status}  {row['case']} draw {row['draw']}{extra}")
        print()
        print("published-table diff report:")
        for diff in report["printed_diffs"]:
            tag = f" [{diff['doc']}]" if diff.get("doc") else ""
            print(f"  {diff['case']} {diff['target']} {diff['entry']}: "
                  f"printed {diff['printed']!r} vs computed "
                  f"{diff['computed']!r}{tag}")
        summary = report["summary"]
        print()
        print(f"cases: {summary['cases']}  runs: {summary['runs']}  "
              f"passed: {summary['passed']}  failed: {summary['failed']}")
    if any(row.get("error_kind") == "crash" for row in report["results"]):
        return EXIT_CRASH
    return EXIT_OK if report["summary"]["failed"] == 0 else EXIT_FALSIFIED


def cmd_counterexample(args) -> int:
    report = counterexample_report()
    corrected_ok = report["corrected_commutator"].is_zero
    printed_bad = not report["printed_commutator"].is_zero
    reproduced = corrected_ok and printed_bad
    if args.format == "text":
        print(f"P = {report['P']}")
        print(f"corrected construction: Q = {report['corrected_Q']}, "
              f"[P,Q] = {report['corrected_commutator']}")
        print(f"printed recursion:      Q = {report['printed_Q']}, "
              f"[P,Q] = {report['printed_commutator']}")
        print(f"reproduced: {reproduced}")
    else:
        _emit({
            "corrected_Q": ser.encode_diffop(report["corrected_Q"]),
            "corrected_commutator": ser.encode_diffop(
                report["corrected_commutator"]),
            "printed_recursion_Q": ser.encode_diffop(report["printed_Q"]),
            "printed_recursion_commutator": ser.encode_diffop(
                report["printed_commutator"]),
            "reproduced": reproduced,
        }, args.format)
    return EXIT_OK if reproduced else EXIT_FALSIFIED


def _add_common(parser):
    parser.add_argument("--format", choices=("json", "text"), default="json")


def _add_family_args(parser):
    parser.add_argument("--family", choices=sorted(PARAM_NAMES))
    parser.add_argument("--params", help="name=value,... exact parameters")


def _add_spec_args(parser):
    parser.add_argument("--degree", type=int, choices=(1, 2), default=1)
    parser.add_argument("--beta0")
    parser.add_argument("--beta1")
    parser.add_argument("--beta2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heunops",
        description="Exact commuting companions for the Heun operator family")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("families", help="list families and their parameters")
    _add_common(p)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("build", help="build the family operator")
    _add_common(p)
    _add_family_args(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("semicommute",
                       help="build the semi-commuting companion")
    _add_common(p)
    _add_family_args(p)
    _add_spec_args(p)
    p.set_defaults(func=cmd_semicommute)

    p = sub.add_parser("residual", help="commutativity residual report")
    _add_common(p)
    _add_family_args(p)
    _add_spec_args(p)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("local-points",
                       help="points where the pair commutes locally")
    _add_common(p)
    _add_family_args(p)
    _add_spec_args(p)
    p.set_defaults(func=cmd_local_points)

    p = sub.add_parser("compose", help="operator product A∘B")
    _add_common(p)
    p.add_argument("--op-a", required=True, help="DiffOp JSON or @file")
    p.add_argument("--op-b", required=True, help="DiffOp JSON or @file")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("gauge", help="conjugate by e^{g}")
    _add_common(p)
    p.add_argument("--op", required=True, help="DiffOp JSON or @file")
    p.add_argument("--exponent", required=True,
                   help="g as an expression in x, e.g. '2*x' or 'x^3/3-2*x'")
    p.set_defaults(func=cmd_gauge)

    p = sub.add_parser("verify-case", help="verify one catalog case")
    _add_common(p)
    p.add_argument("--id", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truncation", type=int, default=40)
    p.add_argument("--radius",
                   help="series check radius (rational, e.g. 1/10); "
                        "derived from the singularity distance by default")
    p.add_argument("--override", help="name=value,... parameter overrides")
    p.set_defaults(func=cmd_verify_case)

    p = sub.add_parser("verify-all", help="verify the whole catalog")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truncation", type=int, default=40)
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("counterexample-gorder",
                       help="first-degree recursion counterexample report")
    _add_common(p)
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (CliError, ExprError, ParameterError, NotSemiCommutingError,
            GorderObstructionError, cat.CatalogError, ValueError,
            KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
