"""Gauges of how fast the machine runs right now.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes (see NOISE.md).  The worker times a fixed
pure-Python kernel between operations, and every timed interval is
rescaled to the speed at which the kernel takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / (kernel time measured around it)

The kernel mixes interpreter work (tuples, a dict, small ints) with
multi-thousand-bit multiplication, the two kinds of work the in-process
workloads do.  Where the work runs in child processes (CLI calls,
``import heisaut``), the gauge is a child process too: a fresh interpreter
that imports a fixed set of standard modules, timed from spawn to exit,
whose nominal time is ``NOMINAL_PROCESS_S``.  Start-up drifts less than
compute on these machines, and this gauge follows it more closely than the
kernel does.

Neither gauge runs heisaut, so no change to the library can move them, and
a change that makes heisaut slower shows in full.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

# roughly the gauges' median times on the machine the bounds were set on
# (2-vCPU x86-64 VM, Python 3.11.7); only fixed scales for the results
NOMINAL_S = 0.015
NOMINAL_PROCESS_S = 0.080

_BIG = tuple(random.Random(0).getrandbits(4096) | 1 for _ in range(8))


def kernel() -> int:
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(50_000):
        pair = (i, i & 7)
        table[pair[1]] = pair
        acc += pair[0] * 3 + len(table)
    for _ in range(5):
        for a in _BIG:
            for b in _BIG:
                acc ^= a * b
    return acc


def measure() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


# standard modules of the kind a CLI process loads; never heisaut
_STARTUP = "import argparse, dataclasses, decimal, fractions, json"


def measure_process() -> float:
    """Wall time of a fresh interpreter that imports _STARTUP, from spawn
    to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _STARTUP], check=True)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Gauge:
    """How a workload gauges the machine: ``measure`` runs every ``every_s``
    seconds of wall time, and an interval is rescaled by the median of the
    ``window`` measurements on either side of it, to the speed at which
    ``measure`` takes ``nominal`` seconds."""

    measure: Callable[[], float]
    nominal: float
    every_s: float
    window: int

    def scale(self, times: list[float]) -> float:
        return self.nominal / statistics.median(times)


IN_PROCESS = Gauge(measure, NOMINAL_S, every_s=0.25, window=2)
CHILD_PROCESS = Gauge(measure_process, NOMINAL_PROCESS_S, every_s=1.0, window=1)

