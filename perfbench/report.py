"""Statistics and result bookkeeping shared by the workloads.

An :class:`Outcome` collects one invocation's metrics, its attempted
and failed operation counts and the human-readable lines printed above
the final JSON result. A :class:`Reference` times a fixed kernel in
the same window, so end-to-end times can be scaled to a reference
machine.
"""

from __future__ import annotations

import resource
import statistics
import time
from array import array
from typing import Dict, List, Sequence, Tuple

import numpy as np


def tail_percentile(
    samples: Sequence[float], want: float = 99.0
) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` at the highest percentile up to
    ``want`` that still has at least ten samples beyond it."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0
    q = min(want, 100.0 * (1.0 - 10.0 / n)) if n > 10 else 50.0
    ordered = sorted(samples)
    return _quantile(ordered, q), q, n


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted samples."""
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: Speed of the reference kernel's two parts, that end-to-end times and
#: rates are scaled to: iterations per second of a pure-Python loop, and
#: reads per second of cache lines of a table larger than the last-level
#: cache, in random order.
LOOP_RATE = 20e6
LOOP_ITERATIONS = 5_000
GATHER_RATE = 40e6
GATHER_READS = 1 << 14
GATHER_BYTES = 128 << 20
CACHE_LINE = 64
MIB = 1 << 20
#: Reference samples in the running median that gives each sample's
#: local speed.
LOCAL_SAMPLES = 9
#: Reference samples taken before each set-up and after the last.
SETUP_SAMPLES = 40


class Reference:
    """Times a fixed kernel between slices of measured work.

    Other tenants of a shared machine move its speed by up to 1.7x for
    seconds to minutes at a time. Each measured time is scaled by the
    kernel's speed measured next to it, in the same process, which
    cancels most of that. Contention slows the interpreter and memory
    by different amounts, and the simulator depends on both, so the
    kernel has one part for each: a pure-Python loop, then one read from
    each of ``GATHER_READS`` cache lines of a table larger than the
    last-level cache. The lines are visited in a fixed random order,
    each once per pass over the table, so every read misses the cache
    whatever the measured work left in it: the kernel's time does not
    depend on the program's footprint.

    Each sample is filed with a ``mark``: a count of items measured
    before it, or a ``perf_counter`` time, in increasing order.
    """

    def __init__(self, table: bool = True) -> None:
        self.times = array("d")
        self.marks = array("d")
        self.nominal_s = (
            LOOP_ITERATIONS / LOOP_RATE + GATHER_READS / GATHER_RATE
        )
        self.arrays: List[np.ndarray] = []
        if table:
            self.table = np.arange(GATHER_BYTES // 8, dtype=np.int64)
            lines = GATHER_BYTES // CACHE_LINE
            self.order = np.random.default_rng(0).permutation(lines)
            self.order *= CACHE_LINE // 8
            self.read = np.empty(GATHER_READS, dtype=np.int64)
            self.arrays = [self.table, self.order, self.read]
            self.next_line = 0

    @classmethod
    def of_samples(
        cls, times: Sequence[float], marks: Sequence[float],
    ) -> "Reference":
        """The samples another process took, without a table."""
        ref = cls(table=False)
        ref.times, ref.marks = array("d", times), array("d", marks)
        return ref

    @property
    def table_mib(self) -> float:
        """Resident size of the kernel's arrays, in MiB."""
        return sum(a.nbytes for a in self.arrays) / MIB

    def clear(self) -> None:
        self.times, self.marks = array("d"), array("d")

    def sample(self, count: int = 1, mark: float = 0.0) -> None:
        for _ in range(count):
            start = self.next_line
            lines = self.order[start:start + GATHER_READS]
            t0 = time.perf_counter()
            acc = 0
            for i in range(LOOP_ITERATIONS):
                acc += i & 7
            np.take(self.table, lines, out=self.read)
            self.times.append(time.perf_counter() - t0)
            self.marks.append(mark)
            self.next_line = (start + GATHER_READS) % len(self.order)

    def speed(self) -> float:
        """The window's speed over the reference machine's (1 = same),
        from its median sample."""
        return self.nominal_s / median(self.times)

    def speed_at(
        self, points: Sequence[float], window: int = LOCAL_SAMPLES,
    ) -> np.ndarray:
        """The local speed at each of ``points`` (marks, increasing): the
        speed of the running median of ``window`` samples centred on the
        first sample marked after the point (the last sample for points
        beyond it)."""
        times = np.asarray(self.times)
        half = window // 2
        local = np.array([
            np.median(times[max(0, k - half):k + half + 1])
            for k in range(len(times))
        ])
        at = np.searchsorted(np.asarray(self.marks), points, side="right")
        return self.nominal_s / local[np.minimum(at, len(times) - 1)]

    def scale(self, times: Sequence[float]) -> np.ndarray:
        """``times`` of consecutive items, each scaled by the local speed
        of the samples around it; sample marks count items."""
        return np.asarray(times) * self.speed_at(np.arange(len(times)))


def setup_seconds(
    ref: Reference, import_s: float, builds: Sequence[float],
) -> float:
    """The median over set-ups of ``import_s`` plus the set-up's time,
    each scaled by the reference samples taken just before and after
    it (marked with the set-up's index, and one past the last)."""
    speeds = ref.speed_at(range(len(builds)), window=2 * SETUP_SAMPLES + 1)
    return median([(import_s + t) * v for t, v in zip(builds, speeds)])


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if len(samples) else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Metrics, operation counts and notes of one invocation."""

    def __init__(self) -> None:
        #: Metric values by name; units come from ``BENCHMARK.json``.
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def note(self, line: str) -> None:
        self.notes.append(line)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        """Count one correctness check as an operation; note it."""
        self.ops(1, 0 if ok else 1)
        verdict = "ok" if ok else "MISMATCH"
        self.note(f"check {label}: {verdict}{' — ' + detail if detail else ''}")
        return ok

