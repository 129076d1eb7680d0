"""Each workload at a tiny size emits every metric BENCHMARK.json names,
with its unit, and decides every verdict correctly.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace),
         "--limit", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    report, result = run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert report["wrong"] == [] and report["errors"] == []
    if not trace:
        shown = report["metrics"]
        assert shown["wrong_verdicts"] == {"value": 0, "unit": "count"}
        assert shown["error_rate"] == {"value": 0.0, "unit": "ratio"}
