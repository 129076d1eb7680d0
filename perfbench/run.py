"""heunops benchmark driver.

Run from the repository root:

    python3 perfbench/run.py --workload commute_sweep --seed 1 --seconds 18 --trace 0

Workloads (see workloads.py): commute_sweep, verify_catalog, random_operators.
One process runs one workload, single-threaded, in a closed loop: the next
verdict starts when the previous one is decided.  The program is imported
from ./src; the benchmark only calls its public functions.

--trace 0 measures the end-to-end metrics with tracing off: rounds of
verdicts are decided until --seconds have passed and at least 110 verdicts
are done (so at least 10 samples lie beyond p90).  Its times are scaled to
a reference speed, which takes the host's drifting speed out of them: the
reference kernel of speed.py is timed after every verdict and in every
set-up process.  The report line gives the unscaled times too.

--trace 1 decides every 3rd verdict of the same stream three times over:
untraced for about a third of --seconds, then with spans, then with the
algebra counters, and reports the per-layer metrics.  --limit N cuts each
round to N verdicts and the stream to three rounds of draws, for quick
checks.

Every verdict is checked against its known answer.  In the result,
"failed" counts verdicts that raised instead of deciding, and "correct" is
false when any decided verdict disagrees with its known answer: a crash is
reported as a crash, never as a wrong verdict.  The report line
({"report": ...}) carries all end-to-end metrics with units, the error rate
and wrong-verdict count, the run metadata and, for verify_catalog, a digest
of the exact output of its first 110 verdicts.  The last line is the
result object.  Exit code 2 means the program could not be found.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"

MIN_VERDICTS = 110
TRACE_STRIDE = 3
SETUP_SAMPLES = 8
# the set-up a user command pays, between reference samples taken in the
# same process, which the parent times set-up against (see measure_setup)
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:]; import speed; "
              "before = [speed.sample() for _ in range(speed.WINDOW)]; "
              "import numpy, mpmath, heunops; "
              "heunops.catalog.enumerate_cases(); "
              "print(*before, *[speed.sample() for _ in range(speed.WINDOW)])")

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in (
        "funcalg.wronskian_numeric", "funcalg.apply_op", "diffop.compose",
        "diffop.commutator", "diffop.gauge_transform",
        "series.frobenius_series", "series.series_residual",
        "catalog.draw_env", "catalog.resolve_env", "catalog.build_case",
        "catalog.diff_printed", "catalog.verify_case",
        "ratfunc.partial_fractions", "semicommute.build_q",
        "semicommute.residual", "families.build", "cli.main")},
    **{f"{name}.calls": "count" for name in (
        "funcalg.wronskian_numeric", "funcalg.apply_op", "diffop.compose",
        "diffop.commutator")},
    "catalog.draw_env.accept_ratio": "ratio",
    "poly.gcd.calls": "count",
    "poly.gcd.trivial_share": "ratio",
    "poly.gcd.max_degree": "degree",
    "poly.coeff_max_bits": "bits",
    "poly.mul.calls": "count",
    "poly.divmod.calls": "count",
    "ratfunc.add.calls": "count",
    "ratfunc.mul.calls": "count",
    "ratfunc.derivative.calls": "count",
    "field.mul.calls": "count",
    "field.mul.rational_share": "ratio",
    "field.inverse.calls": "count",
    "exprs.eval.calls": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}


def measure_setup(count: int) -> tuple:
    """Wall times of fresh processes that import heunops, numpy and mpmath
    and load the catalog: the set-up every user command pays.

    Each process also times the reference kernel itself, just before and
    just after its set-up, on whichever CPU it ran on; its set-up is its
    wall time less those samples, and is scaled by them.  Returns the raw
    and the scaled set-up times."""
    raw, scaled = [], []
    for _ in range(count):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            check=True, cwd=ROOT, capture_output=True, text=True).stdout
        wall = time.perf_counter() - start
        samples = [float(word) for word in out.split()]
        raw.append(wall - math.fsum(samples))
        scaled.append(raw[-1] * speed.NOMINAL_S / statistics.median(samples))
    return raw, scaled


class Pass:
    """Verdicts decided in one pass over a stream, with their outcomes."""

    def __init__(self, reference: bool = False):
        self.reference = reference
        self.labels: list = []
        self.latencies: list = []
        self.references: list = []
        self.wrong: list = []
        self.errors: list = []
        self.outputs: list = []
        self.wall = 0.0

    def run(self, rounds, seconds: float, min_verdicts: int, call=None):
        """Decide whole rounds of items until `seconds` have passed and
        `min_verdicts` are done, or the rounds run out."""
        call = call or (lambda index, item: item.run())
        clock = time.perf_counter
        start = clock()
        for items in rounds:
            for item in items:
                self._decide(item, call)
            if clock() - start >= seconds and len(self.labels) >= min_verdicts:
                break
        self.wall = clock() - start
        return self

    def _decide(self, item, call):
        index = len(self.labels)
        self.labels.append(item.label)
        t0 = time.perf_counter()
        try:
            ok, output = call(index, item)
        except Exception as exc:  # a crash is an error, not a verdict
            self.latencies.append(time.perf_counter() - t0)
            self.errors.append(f"{item.label}: {type(exc).__name__}: {exc}")
        else:
            self.latencies.append(time.perf_counter() - t0)
            if not ok:
                self.wrong.append(item.label)
            if output is not None:
                self.outputs.append((item.label, output))
        if self.reference:
            self.references.append(speed.sample())

    def scaled_latencies(self) -> list:
        """Verdict wall times at the reference speed (see speed.py)."""
        return [t * k for t, k in zip(self.latencies,
                                      speed.scales(self.references))]


def digest(outputs) -> str:
    import workloads

    h = hashlib.sha256()
    for label, output in outputs:
        h.update(json.dumps([label, workloads.fingerprint(output)],
                            sort_keys=True, default=str).encode())
        h.update(b"\n")
    return h.hexdigest()


def metadata(args) -> dict:
    from heunops.field import Q

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "limit": args.limit,
        "scalar_backend": f"{Q.__module__}.{Q.__qualname__}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics.  It moves less from one set of inputs to the next
    than the single order statistic a plain sample quantile picks."""
    import mpmath

    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True))
           for i in range(n + 1)]
    return math.fsum((hi - lo) * x
                     for lo, hi, x in zip(cdf, cdf[1:], ordered))


def timing_metrics(latencies: list, setup: list) -> dict:
    return {
        "verdicts_per_s": len(latencies) / math.fsum(latencies),
        "verdict_p50_ms": 1000 * quantile(latencies, 0.5),
        "verdict_p90_ms": 1000 * quantile(latencies, 0.9),
        "setup_s": statistics.median(setup),
    }


def end_to_end(args, stream) -> tuple:
    # half the set-up samples before the pass and half after
    setup_raw, setup_scaled = measure_setup(SETUP_SAMPLES // 2)
    # a limited stream is finite and runs in full
    min_verdicts = math.inf if args.limit else MIN_VERDICTS
    run = Pass(reference=True).run(stream, args.seconds, min_verdicts)
    more_raw, more_scaled = measure_setup(SETUP_SAMPLES // 2)
    setup_raw += more_raw
    setup_scaled += more_scaled
    n = len(run.latencies)
    latencies = run.scaled_latencies()
    metrics = timing_metrics(latencies, setup_scaled)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    shown = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
             for name, value in metrics.items()}
    shown["error_rate"] = {"value": len(run.errors) / n, "unit": "ratio"}
    shown["wrong_verdicts"] = {"value": len(run.wrong), "unit": "count"}
    report = {
        "metrics": shown,
        "samples": {"verdicts": n, "setup": len(setup_scaled),
                    "beyond_p90": sum(
                        1 for t in latencies
                        if t > metrics["verdict_p90_ms"] / 1000)},
        "unscaled": timing_metrics(run.latencies, setup_raw),
        "reference_ms": {
            "nominal": 1000 * speed.NOMINAL_S,
            "median": 1000 * statistics.median(run.references),
            "min": 1000 * min(run.references),
            "max": 1000 * max(run.references)},
        "pass_s": run.wall,
        "wrong": run.wrong,
        "errors": run.errors,
        **metadata(args),
    }
    if run.outputs:
        # a fixed prefix, so that a faster program that decides more
        # verdicts in the same time still yields a comparable digest
        report["digest"] = digest(run.outputs[:MIN_VERDICTS])
    return metrics, report, n, len(run.errors), len(run.wrong)


def traced(args, stream) -> tuple:
    from tracing import AlgebraCounters, Patches, SpanTracer

    items = []

    def keep(index, item):
        items.append(item)
        return item.run()

    strided = itertools.islice(itertools.chain.from_iterable(stream), 0,
                               None, TRACE_STRIDE)
    plain = Pass().run(([item] for item in strided), args.seconds / 3, 1,
                       call=keep)

    tracer = SpanTracer()
    with Patches() as patches:
        tracer.install(patches)
        spanned = Pass().run([items], 0, 0,
                             call=lambda i, item: tracer.verdict(i, item.run))
    counters = AlgebraCounters()
    with Patches() as patches:
        counters.install(patches)
        counted = Pass().run([items], 0, 0)

    spans = tracer.summary(spanned.wall)
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
    for name, value in spans["self_s"].items():
        metrics[f"{name}.self_s"] = value
    for name, value in spans["calls"].items():
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] = value
    metrics["catalog.draw_env.accept_ratio"] = spans["draw_accept_ratio"]
    metrics.update(counters.summary())
    metrics["trace.overhead_ratio"] = spanned.wall / plain.wall
    metrics["trace.unattributed_s"] = spans["unattributed_s"]
    unknown = set(metrics) - set(PER_LAYER_UNITS)
    if unknown:
        raise AssertionError(f"spans without a metric: {sorted(unknown)}")

    trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_file, spanned.labels)
    accounted = sum(spans["self_s"].values()) + spans["unattributed_s"]
    report = {
        "metrics": {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                    for name, value in metrics.items()},
        "verdicts": len(items),
        "untraced_s": plain.wall,
        "traced_s": spanned.wall,
        "counted_s": counted.wall,
        "accounted_s": accounted,
        "spans": len(tracer.spans),
        "trace_file": str(trace_file.relative_to(ROOT)),
        "wrong": plain.wrong + spanned.wrong + counted.wrong,
        "errors": plain.errors + spanned.errors + counted.errors,
        **metadata(args),
    }
    passes = (plain, spanned, counted)
    return (metrics, report, sum(len(p.labels) for p in passes),
            sum(len(p.errors) for p in passes),
            sum(len(p.wrong) for p in passes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="at most N verdicts per round, three rounds")
    args = parser.parse_args(argv)

    if not (SRC / "heunops" / "__init__.py").is_file():
        print(f"error: no heunops package under {SRC}", file=sys.stderr)
        return 2
    # single-threaded BLAS, so the numbers measure the program, not the
    # scheduler; set before numpy is first imported, here or in set-up
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    stream = workloads.WORKLOADS[args.workload](args.seed, args.limit)
    measure = traced if args.trace else end_to_end
    metrics, report, attempted, failed, wrong = measure(args, stream)
    print(json.dumps({"report": report}))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
