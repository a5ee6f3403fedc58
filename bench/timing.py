"""Drift-cancelled timing.

A fixed reference loop is timed right beside every operation.  An
operation's normalised time is its raw time times ``NOMINAL_REF_S`` divided
by the reference time measured around it, so the unit stays seconds and a
host that runs everything 15% slower for a while changes the normalised
figure far less than the raw one.  The loop allocates no containers, so the
program's heap size and collector state cannot change it.  Like the
library's scans it indexes a list of letters and a tuple of ranks, and its
stride spreads it over a 256 KiB list, so cache contention slows it too.
"""

from __future__ import annotations

import math
import statistics
import time

REF_LETTERS = 1 << 15
REF_STRIDE = 22  # 1490 steps over the list
# Median time of one reference loop on the host the reference figures in
# README.md come from (2 cores, CPython 3.11).
NOMINAL_REF_S = 0.0002
# Reference samples on each side of an operation that its normaliser uses.
REF_WINDOW = 4
_LETTERS = [(i * 7919) % 3 for i in range(REF_LETTERS)]
_RANK = (2, 0, 1)


def ref_loop() -> float:
    """Seconds taken by the fixed reference loop."""
    letters, rank = _LETTERS, _RANK
    t0 = time.perf_counter()
    x = 0
    i = 0
    while i < REF_LETTERS:
        x = (x * 5 + rank[letters[i]]) & 1023
        i += REF_STRIDE
    return time.perf_counter() - t0


def normalisers(refs: list[float]) -> list[float]:
    """Factor for operation i, which ran between reference samples i and i + 1.

    Each factor is ``NOMINAL_REF_S`` over the median of the reference samples
    within ``REF_WINDOW`` of that operation, so one interrupted sample does
    not skew it.
    """
    out = []
    for i in range(len(refs) - 1):
        lo = max(0, i + 1 - REF_WINDOW)
        hi = min(len(refs), i + 1 + REF_WINDOW)
        out.append(NOMINAL_REF_S / statistics.median(refs[lo:hi]))
    return out


def geometric_mean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
