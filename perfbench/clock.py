"""Calibrated time: wall time corrected for the host's changing speed.

On shared 2-vCPU hosts the same Python code runs up to 1.5x slower for tens
of seconds at a time, then fast again, so raw wall times of whole runs
scatter by that factor.  The clock therefore runs a fixed reference kernel
(pure Python, no engine code, garbage collection off) every
``INTERVAL`` seconds from a SIGALRM handler in the benchmark's own thread.
The time a job takes between two samples is divided by the reference time
measured around it and multiplied by ``REF_SECONDS``, about the kernel's
time when the host is fast.  A calibrated second is thus the time the work
would take on a host where the kernel runs in ``REF_SECONDS``.  The handler's own
time is left out of every interval.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import time
from array import array
from fractions import Fraction

import oracle

INTERVAL = 0.2
REF_SECONDS = 1e-3


_rng = random.Random(0)
_EDGES = [oracle.random_planar(_rng, 5, 3) for _ in range(24)]
_LITERALS = [oracle.literal(5, 3, e) for e in _EDGES]
_LEFT = {e: Fraction(_rng.randint(1, 5), _rng.randint(1, 3)) for e in _EDGES[:5]}
_RIGHT = {e: Fraction(_rng.randint(1, 5), _rng.randint(1, 3)) for e in _EDGES[5:10]}


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def step(self, x):
        return _Cell(self.b, (self.a + x) % 97)


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter work that uses no engine code.

    Fraction arithmetic, string parsing and formatting, dict and tuple
    building, method calls with allocation, and an integer loop.  Measured
    side by side with the engine's jobs over four minutes of the host's
    speed changes, this mix tracked them best: normalizing 15-second
    windows by it left a spread of about 3%, against 20% raw, 7% for an
    integer loop alone and 4-5% for any one kind of work alone.
    """
    t0 = time.perf_counter()
    oracle.bilinear(_LEFT, _RIGHT)
    parsed = [oracle.parse_literal(text) for text in _LITERALS]
    counts: dict = {}
    for a, b in zip(parsed, parsed[1:]):
        product = oracle.compose(a, b)
        counts[product] = counts.get(product, 0) + 1
    for product in sorted(counts):
        oracle.literal(5, 3, product)
    cell = _Cell(1, 2)
    for i in range(1500):
        cell = cell.step(i)
    total = 0
    for i in range(2500):
        total += i * i % 7
    return time.perf_counter() - t0


class CalibratedClock:
    """Reference samples taken by a timer signal, and intervals priced by them.

    Use it as a context manager around the measured work, keep the
    ``mark()`` values of each interval's start and end, and ``price`` the
    intervals after the block, once the samples after them exist.
    """

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.refs = array("d")

    def _sample(self, *_):
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            ref = min(reference_kernel() for _ in range(3))
        finally:
            if enabled:
                gc.enable()
        self.refs.append(ref)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return False

    mark = staticmethod(time.perf_counter)

    def price(self, start: float, end: float) -> tuple[float, float]:
        """(raw, calibrated) seconds from ``start`` to ``end``, without the handler's time.

        The samples inside the interval cut it into stretches; each stretch
        is priced at the mean of the reference times of the samples on
        either side of it.
        """
        starts, ends, refs = self.starts, self.ends, self.refs
        k = bisect.bisect_right(starts, start) - 1
        raw = cal = 0.0
        t = start
        while True:
            after = k + 1 if k + 1 < len(refs) else k
            stop = min(end, starts[after]) if after > k else end
            raw += stop - t
            cal += (stop - t) * 2 / (refs[k] + refs[after])
            if after == k or starts[after] >= end:
                return raw, cal * REF_SECONDS
            t, k = ends[after], after

    def reference_median(self) -> float:
        ordered = sorted(self.refs)
        return ordered[len(ordered) // 2]
