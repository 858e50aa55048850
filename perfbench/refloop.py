"""The reference loop: a fixed piece of plain Python that measures machine speed.

On a shared machine the speed of pure-Python code drifts by a fifth over tens
of seconds.  The benchmark times this loop at intervals through every run and
scales each program timing by NOMINAL_REF_S / (reference time measured around
it), which reports every time at one fixed machine speed.

The loop does tuple and int work (small-int polynomial products and a big-int
step), the same kind of work the program does, and imports nothing from
nonicindex.  It runs with the garbage collector
paused, so the program's heap cannot change how long it takes.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# Median time of one reference_work() call on the machine the README's
# figures come from (2-core x86-64 container, Python 3.11.7).
NOMINAL_REF_S = 0.0055

_MODULUS = (1 << 127) - 1
_REPS = 700


def _pmul3(f: tuple, g: tuple) -> tuple:
    """Product of two polynomials over F_3, coefficient tuples, low degree first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % 3
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def reference_work() -> int:
    """Fixed tuple and int work; the result is returned so it is consumed.

    Mostly small-int polynomial products over tuples, with one big-int step
    per product.  A loop of big-int products alone tracked the program's
    drift worse (README, "The reference loop").
    """
    f = (1, 2, 0, 1, 1, 0, 2, 1, 1, 1)
    g = (2, 1, 1, 0, 1)
    acc = 0x9E3779B97F4A7C15
    for i in range(_REPS):
        h = _pmul3(f, g)
        f = tuple((c + i) % 3 for c in h[:10]) or (1,)
        acc = (acc * 0x100000001B3 + len(h)) % _MODULUS
    return acc


def time_reference() -> float:
    """Seconds taken by one reference_work() call, garbage collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def sample_median(n: int) -> tuple:
    """(median seconds of n reference calls, total seconds spent on them)."""
    t0 = time.perf_counter()
    times = [time_reference() for _ in range(n)]
    return statistics.median(times), time.perf_counter() - t0


class Scaler:
    """Reference samples taken through a run, and the scale factor at a time."""

    WINDOW_S = 1.0  # samples within this many seconds of a timing set its reference
    MIN_SAMPLES = 5  # ... or, where there are fewer, the nearest MIN_SAMPLES

    def __init__(self):
        self.times: list = []  # perf_counter at each sample
        self.values: list = []  # seconds per reference call
        self._medians: dict = {}  # (lo, hi) -> median of values[lo:hi]

    def sample(self) -> None:
        """Time the reference once now."""
        t0 = time.perf_counter()
        self.values.append(time_reference())
        self.times.append(t0)

    def factor_at(self, t: float) -> float:
        """NOMINAL_REF_S / median of the reference samples around time t."""
        if not self.values:
            raise RuntimeError("no reference sample taken")
        lo = bisect.bisect_left(self.times, t - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, t + self.WINDOW_S)
        if hi - lo < self.MIN_SAMPLES:
            i = bisect.bisect_left(self.times, t)
            lo = max(0, min(i - self.MIN_SAMPLES // 2, len(self.values) - self.MIN_SAMPLES))
            hi = lo + self.MIN_SAMPLES
        if (lo, hi) not in self._medians:
            self._medians[(lo, hi)] = statistics.median(self.values[lo:hi])
        return NOMINAL_REF_S / self._medians[(lo, hi)]

    def median(self) -> float:
        return statistics.median(self.values)

    def spread(self) -> float:
        """Interquartile range of the samples as a share of their median."""
        if len(self.values) < 4:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.values, n=4)
        return (q3 - q1) / self.median()
