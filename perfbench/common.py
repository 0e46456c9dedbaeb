"""Shared pieces of the benchmark: where it writes, the gate error,
host speed, statistics and memory."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

OUT_DIR = Path(__file__).resolve().parent / "out"
"""Run records, span files and scratch state; inside the checkout."""


class GateError(AssertionError):
    """A simulated statistic or output differs from its reference."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return float(statistics.fmean(ordered[k:len(ordered) - k]))


CALIBRATION_REF_S = 0.012
"""Seconds :func:`calibration` takes on the reference host (one vCPU of
a 2-vCPU x86-64 VM, CPython 3.11).  Every time the benchmark reports is
scaled by it, so it must never change."""


def calibration(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds, on ``clock``, a fixed pure-Python loop takes now: how
    fast the host runs this process at this moment."""
    t0 = clock()
    counts: Dict[int, int] = {}
    for i in range(100_000):
        counts[i & 4095] = counts.get(i & 4095, 0) + i
    return clock() - t0


SAMPLER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from common import calibration\n"
    "while True:\n"
    "    time.sleep(float(sys.argv[2]))\n"
    "    took = calibration(time.thread_time)\n"
    "    print(time.perf_counter(), took, flush=True)\n"
)
"""A process printing, once per interval, when it took a CPU-time
calibration sample (``perf_counter``, on Linux a clock shared by every
process of the machine) and the sample."""


SAMPLES_AROUND = 4
"""Samples right before and right after each timed operation."""


class HostSpeed:
    """Host speed over one run, from :func:`calibration` samples taken
    around and during the run's operations.

    On a shared virtual machine the same code runs up to 2x slower for
    stretches of seconds to minutes while steal time stays near zero,
    so wall times of runs minutes apart spread past any useful bound.
    The calibration loop slows down with them: operation time over
    calibration time stays within a few percent from run to run while
    operation time drifts by tens of percent.  The benchmark reports
    every end-to-end time divided by the factor of the samples taken
    when it was measured, and every rate multiplied by it: the figure
    the run would have read on the reference host.  The raw times and
    samples go to the run record."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.times: List[float] = []
        """``perf_counter`` at the end of each sample."""

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(calibration())
            self.times.append(time.perf_counter())

    @contextmanager
    def sampling(self, every_s: float = 0.5) -> Iterator[None]:
        """Take a sample every ``every_s`` in a separate process for the
        length of the block, so that it holds no lock of this one.  These
        are timed in the sampler's CPU time: the block's own processes
        keep the CPUs busy, and wall time would measure the wait for
        them."""
        sampler = subprocess.Popen(
            [sys.executable, "-c", SAMPLER, str(Path(__file__).parent),
             str(every_s)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            yield
        finally:
            sampler.kill()
            lines, _ = sampler.communicate()
            # The text after the last newline may be a cut-off sample.
            taken = [line.split() for line in lines.split("\n")[:-1]]
            self.times.extend(float(t) for t, _ in taken)
            self.samples.extend(float(s) for _, s in taken)
            if not taken:
                # A block shorter than the interval still gets one.
                self.sample()

    def factor(self, start: int = 0, stop: Optional[int] = None) -> float:
        """Mean calibration time of ``samples[start:stop]`` over the
        reference: 1.2 means the host ran 20% slower than the reference
        host while they were taken.  The samples fall into a fast and a
        slow mode, so their median jumps between the two as the mix
        shifts; the mean follows the mix.  The top and bottom tenth are
        left out."""
        return trimmed_mean(self.samples[start:stop]) / CALIBRATION_REF_S

    def after(self, count: int = SAMPLES_AROUND) -> float:
        """Take ``count`` samples right after an operation and return the
        :meth:`factor` of them and the ``count`` taken right before it.
        An operation timed between two such bursts is scaled by the
        host's speed at the time it ran."""
        self.sample(count)
        return self.factor(len(self.samples) - 2 * count)

    def factor_between(self, t0: float, t1: float) -> float:
        """:meth:`factor` of the samples that ended between ``perf_counter``
        times ``t0`` and ``t1``, or of the one nearest to them if none
        did."""
        inside = [s for s, t in zip(self.samples, self.times) if t0 <= t <= t1]
        if not inside:
            middle = (t0 + t1) / 2
            inside = [min(zip(self.samples, self.times),
                          key=lambda st: abs(st[1] - middle))[0]]
        return trimmed_mean(inside) / CALIBRATION_REF_S


TAIL_MIN_SAMPLES = 100


def tail(values: Sequence[float]) -> float:
    """The tail latency: the highest order statistic with ten samples
    beyond it (the (n-10)/n percentile).  Below 100 samples no high
    percentile is supported that way, and the maximum is reported."""
    ordered = sorted(values)
    if len(ordered) < TAIL_MIN_SAMPLES:
        return float(ordered[-1])
    return float(ordered[-11])


def peak_rss_mb(include_self: bool = True) -> float:
    """Largest resident set of this process or any waited-for
    descendant (pool workers, the server), in MB (Linux reports KiB).
    ``include_self=False`` leaves out this process, for workloads where
    it only generates load."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak * 1024 / 1e6


class Outcome:
    """What one workload run measured: end-to-end metrics (untraced),
    per-layer metrics (traced), operation counts, the host's speed and
    free-form detail for the run record."""

    def __init__(self) -> None:
        self.host = HostSpeed()
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.detail: Dict[str, object] = {}
        self.notes: List[str] = []
