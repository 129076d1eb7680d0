"""A reference kernel that measures how fast the machine runs right now.

The vCPUs of a shared host switch between speeds about 1.65x apart, on
scales from under a second to minutes, as other tenants load the host, and
every wall time the benchmark takes moves with them.  The driver therefore
times this fixed kernel after every verdict and scales the verdict's wall
time by NOMINAL_S over the kernel's local time: a scaled time reads as the
wall time on a machine where the kernel takes NOMINAL_S.  The kernel is
pure-Python arithmetic on
``fractions.Fraction``, the scalar type heunops computes with, so it slows
down with the program when the host does.  It shares no code or state with
the program: a change to the program moves scaled and unscaled times alike.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

#: The kernel's wall time that scaled times refer to (about its median on
#: a 2-vCPU Xeon VM under light load).
NOMINAL_S = 0.010
#: Reference samples on each side of a verdict that its scale is taken from.
WINDOW = 3


def kernel() -> Fraction:
    s = Fraction(0)
    for i in range(1, 1500):
        s += Fraction(1, i) * Fraction(i + 1, i + 2)
    return s


def sample() -> float:
    """Wall time of one kernel run, with the cyclic collector held off so
    that garbage the program left behind is not collected on its clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scales(samples: list) -> list:
    """NOMINAL_S over the median of the samples within WINDOW of each."""
    return [NOMINAL_S / statistics.median(samples[max(0, i - WINDOW):
                                                   i + WINDOW + 1])
            for i in range(len(samples))]
