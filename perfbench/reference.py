"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine the same Python code runs up to ~1.9x slower, in
spells from under a second to minutes, because of load outside this
process; process CPU time slows down with it.  The harness times a
chunk of this computation every 0.1 s and scales each time it reports to
the reference speed: seconds x NOMINAL_S / (mean time of the chunks
around it).  The mean, not the median: a time spent across fast and slow
spells grows with their mean.  The chunk does the kind of work the
library does (small slotted objects with integer shifts, hashing into a
dict, `Fraction` row reduction) and shares no code with it.  It does run
in the library's process, so a library change that alters the heap or
the CPU caches a lot could still move it a little.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

NOMINAL_S = 0.005  # what one chunk takes at the reference speed


class _Pair:
    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int):
        while exp > 0 and num % 2 == 0:
            num //= 2
            exp -= 1
        self.num, self.exp = num, exp

    def __add__(self, other: "_Pair") -> "_Pair":
        if self.exp >= other.exp:
            return _Pair(self.num + (other.num << (self.exp - other.exp)), self.exp)
        return _Pair(other.num + (self.num << (other.exp - self.exp)), other.exp)

    def __lt__(self, other: "_Pair") -> bool:
        return (self + _Pair(-other.num, other.exp)).num < 0

    def __eq__(self, other) -> bool:
        return self.num == other.num and self.exp == other.exp

    def __hash__(self):
        return hash((self.num, self.exp))


def _work():
    seen = {}
    low = _Pair(1, 3)
    for i in range(1200):
        p = _Pair(i * 7 + 1, 5 + i % 4)
        q = low + p
        seen[q] = seen.get(q, 0) + 1
        if p < low:
            low = p
    m = [[Fraction((i * j) % 7 + 1, i + j + 1) for j in range(6)] for i in range(6)]
    for c in range(6):
        pivot = m[c][c]
        m[c] = [v / pivot for v in m[c]]
        for r in range(6):
            if r != c:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return len(seen), m[0][0]


class Speed:
    """Reference chunks timed during a run: start times and seconds.  A
    chunk is `work()`, which takes `nominal` seconds at the reference
    speed; by default the computation above."""

    def __init__(self, work=_work, nominal: float = NOMINAL_S):
        self.work_fn, self.nominal = work, nominal
        self.starts: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time one chunk with the cyclic collector paused."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.work_fn()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.starts.append(t0)
        self.samples.append(dt)

    @contextmanager
    def every(self, interval: float):
        """Take a chunk every `interval` seconds, from a SIGALRM handler,
        while the block runs.  A handler runs to completion between two
        bytecodes, so a chunk lies wholly inside or outside any interval
        the block times."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _inside(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def work(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 less the chunks that ran in between."""
        a, b = self._inside(t0, t1)
        return t1 - t0 - sum(self.samples[a:b])

    def factor(self, t0: float, t1: float) -> float:
        """Factor from seconds measured between t0 and t1 to the reference
        speed, from the mean of the chunks inside the interval and the
        three before and after it."""
        a, b = self._inside(t0, t1)
        return self.nominal / statistics.fmean(self.samples[max(0, a - 3):b + 3])

    def scaled(self, t0: float, t1: float) -> float:
        """`work(t0, t1)` at the reference speed."""
        return self.work(t0, t1) * self.factor(t0, t1)

    def scale(self) -> float:
        """Factor from measured seconds to the reference speed, from the
        mean chunk of the whole run."""
        return self.nominal / statistics.fmean(self.samples)
