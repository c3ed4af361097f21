"""The host a run measures on: its properties, memory and speed."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List

import numpy as np


def properties() -> Dict[str, object]:
    """What a later claim needs to say about the machine."""
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    """Summed peak resident memory (VmHWM) of this process and every
    live child process (pool workers and their manager)."""
    total_kb = 0
    children = [str(child.pid) for child in multiprocessing.active_children()]
    for pid in ["self"] + children:
        try:
            for line in Path("/proc/%s/status" % pid).read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    if total_kb == 0:  # no /proc: this process alone, from getrusage
        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


class HostSpeed:
    """How fast the shared host ran while a compute-bound loop was timed.

    On the recorded 2-core box the host's own speed moves by 15-30%
    over minutes (other tenants; process time stays equal to wall time),
    and every compute-bound request slows with it: between a set of five
    and a set of ten engine-suite runs the median requests/s moved from
    15.4 to 20.0 with no change to the program.  So a fixed numpy
    workload that shares no code with the program is timed between
    requests, at most every :attr:`PROBE_EVERY_S`, and compute-bound
    results are scaled by :attr:`slowdown`, the mean probe time over
    :attr:`REFERENCE_S`.
    Over six engine-suite runs the raw requests/s ranged 16.0-21.0 and
    the scaled one 17.2-18.8.

    The probe runs only while the program is idle, and its time is
    excluded from the timed wall.
    """

    PROBE_EVERY_S = 0.5
    #: Probe time of a typical host state on the recorded box; scaled
    #: results read as if the host always ran at that speed.
    REFERENCE_S = 0.010

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.integers(0, 2 ** 62, size=1 << 16, dtype=np.uint64)
        self._index = rng.integers(0, 1 << 16, size=1 << 16)
        self.samples: List[float] = []
        self._last = -float("inf")

    def probe(self) -> float:
        """Time the fixed workload once; returns the seconds it took."""
        started = time.perf_counter()
        for _ in range(4):
            mixed = self._values.take(self._index) ^ (self._values >> np.uint64(3))
            np.sort(mixed)
            np.unique(mixed[:8192])
        self._last = time.perf_counter()
        elapsed = self._last - started
        self.samples.append(elapsed)
        return elapsed

    def maybe_probe(self) -> float:
        """Probe when :attr:`PROBE_EVERY_S` has passed; seconds spent."""
        if time.perf_counter() - self._last < self.PROBE_EVERY_S:
            return 0.0
        return self.probe()

    @property
    def slowdown(self) -> float:
        """Mean probe time ÷ :attr:`REFERENCE_S` (above 1: a slow host)."""
        return statistics.fmean(self.samples) / self.REFERENCE_S
