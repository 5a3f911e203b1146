"""Host time rescaled to a reference host speed.

On a shared host the speed of a vCPU moves between regimes up to 1.7x
apart, each lasting seconds: a fixed pure-Python loop measured in 50 ms
slices swung between 37 and 64 ms within one minute. A timing that
integrates over such regimes measures the neighbours as much as the
program.

:class:`RefClock` therefore measures the host's speed next to the
program. While it is installed, an interval timer interrupts the program
every :data:`TICK_S` seconds and runs a fixed calibration loop in the
signal handler (the main thread, between two bytecodes; no thread or
process is started). :meth:`RefClock.seconds` turns a stretch of host
time into reference seconds: the calibration pauses are cut out, and
each piece of program time between two pauses is scaled by
``CALIBRATION_REF_S / c``, where ``c`` is the median duration of the
calibrations around it. A reference second is the time the host takes
when the calibration loop runs in exactly :data:`CALIBRATION_REF_S`.

The calibration loop mixes two kinds of interpreter work, because a
contended host slows the program more than a loop that stays in the
cache and less than a loop of cache misses. Over 0.5 s stretches of
repeated mcck-fig10 runs, the program's slowdown (in log terms) was
1.6–2.1 times that of random accesses over a few megabytes, 0.7–0.95
times that of small dict and str operations, and 0.73–1.15 times that
of the mix below (each range spans the slopes of regressing either
way). About a third of the mix's time is random access.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
from time import perf_counter

#: Seconds of host time between two calibrations.
TICK_S = 0.05
#: Random accesses and small dict/str operations of one calibration:
#: about a millisecond in all on a 2-vCPU VM.
MEMORY_OPS = 150
COMPUTE_OPS = 2400
#: Duration of one calibration at the reference host speed.
CALIBRATION_REF_S = 0.001
#: Calibrations on each side of a piece whose median gives its speed.
WINDOW = 4

_rng = random.Random(7)
_CELLS = [[i, float(i)] for i in range(1 << 16)]
_INDEX = [_rng.randrange(len(_CELLS)) for _ in range(8192)]
_ITEMS = [(_rng.random(), j) for j in range(8192)]
_cursor = 0


def calibrate() -> float:
    """Run the fixed calibration loop once; returns its host seconds.

    It allocates two containers, so it hardly moves the garbage
    collector's schedule under the program."""
    global _cursor
    cells, index, items = _CELLS, _INDEX, _ITEMS
    heap: list = []
    counts: dict = {}
    width = 0
    start = perf_counter()
    for j in range(_cursor, _cursor + MEMORY_OPS):
        cell = cells[index[j & 8191]]
        cell[0] += 1
        heapq.heappush(heap, items[(j + cell[0]) & 8191])
    while heap:
        heapq.heappop(heap)
    for i in range(COMPUTE_OPS):
        key = i & 31
        counts[key] = counts.get(key, 0) + i
        width += len(str(key))
    elapsed = perf_counter() - start
    _cursor = (_cursor + MEMORY_OPS) & 8191
    return elapsed


class RefClock:
    """Calibrates the host every :data:`TICK_S` while installed.

    One calibration runs on entry and one on exit, so every stretch
    measured inside has calibrations on both sides."""

    def __init__(self) -> None:
        #: Host time at which each calibration pause began and ended.
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _calibrate(self, *_signal) -> None:
        start = perf_counter()
        calibrate()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def __enter__(self) -> "RefClock":
        calibrate()  # warm the loop's cells into the cache, unrecorded
        self._calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._calibrate()

    def speed(self, k: int) -> float:
        """Reference seconds per host second around calibration ``k``."""
        lo, hi = max(0, k - WINDOW), min(len(self.starts), k + WINDOW + 1)
        window = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        return CALIBRATION_REF_S / statistics.median(window)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of program time between host times
        ``start`` and ``end``, both read outside a calibration."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        total = 0.0
        resume = start
        for k in range(first, last):
            # The piece before pause k; its speed from the calibrations
            # around k, which closes it.
            total += (self.starts[k] - resume) * self.speed(k)
            resume = self.ends[k]
        # The last piece is closed by the next calibration (at the
        # latest the one on exit).
        total += (end - resume) * self.speed(min(last, len(self.starts) - 1))
        return total
