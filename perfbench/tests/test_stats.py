"""The driver's quantile estimate and the reference-speed scaling.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import random
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import speed  # noqa: E402


def test_quantile_of_a_symmetric_sample_is_its_centre():
    assert run.quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    assert run.quantile([5.0] * 7, 0.9) == pytest.approx(5.0)


def test_quantile_tracks_the_sample_quantile():
    rng = random.Random(0)
    values = [rng.expovariate(1.0) for _ in range(400)]
    for p, n, k in ((0.5, 2, 0), (0.9, 10, 8)):
        plain = statistics.quantiles(values, n=n, method="inclusive")[k]
        assert run.quantile(values, p) == pytest.approx(plain, rel=0.05)
    assert run.quantile(values, 0.5) < run.quantile(values, 0.9)


def test_scales_divide_the_nominal_by_the_local_median():
    samples = [speed.NOMINAL_S] * 5 + [2 * speed.NOMINAL_S] * 10
    scales = speed.scales(samples)
    assert scales[0] == pytest.approx(1.0)
    assert scales[-1] == pytest.approx(0.5)
    # one outlier inside the window does not move the median
    spiked = [speed.NOMINAL_S] * 7
    spiked[3] = 10 * speed.NOMINAL_S
    assert speed.scales(spiked) == pytest.approx([1.0] * 7)
