"""Host-speed probe: reported times are scaled to a fixed reference speed.

On a shared host the CPU speed a process gets swings by +-20% from one
second to the next and drifts further over minutes; process CPU time
swings with wall time, so this is contention, not steal. Two runs of the
same code then differ by more than any useful regression bound. The probe
runs a fixed pure-Python loop from a SIGALRM timer every INTERVAL_S, in the
same thread, so also in the middle of long operations. ``clock()`` leaves
the probe's own time out, and the session times every operation with it.

``scaled()`` turns an operation's duration into seconds at the reference
speed: it multiplies by ``(NOMINAL_S / p) ** ELASTICITY``, where ``p`` is the
typical probe time from WINDOW_S before the operation to WINDOW_S after it:
the geometric mean of the middle 80% of those probes, since single probes
jump between two speeds and a median would flip between them.

The probe mixes an in-cache table loop with a scan over objects spread
through memory, as kdetector's record scans are. Over 1-second blocks on a
shared 2-core x86 VM, log(work time) against log(probe time) has slope
0.73 for ``match_features``, 0.94 for a scan over 6,000 records and 0.75 for
small-file reads, with correlation 0.94 to 0.98; hence ELASTICITY. A change
to kdetector moves a scaled time; a busier host does not. The run prints
the typical factor on its ``speed`` line.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import time

NOMINAL_S = 0.001  # the probe's usual time on a shared 2-core x86 VM
ELASTICITY = 0.8
INTERVAL_S = 0.04  # one probe per interval, about 2.5% of the run
WINDOW_S = 1.0

_A = list(range(32))
_B = [x * 7 % 32 for x in range(32)]


class _Record:
    __slots__ = ("key",)

    def __init__(self, key: int) -> None:
        self.key = key


def reference_work(records: list[_Record]) -> int:
    """Interpreter-bound work of the kind kdetector does: a longest common
    subsequence table over lists, then a scan over many small objects."""
    rows = [[0] * (len(_B) + 1) for _ in range(len(_A) + 1)]
    for i in range(len(_A) - 1, -1, -1):
        row, below = rows[i], rows[i + 1]
        for j in range(len(_B) - 1, -1, -1):
            row[j] = below[j + 1] + 1 if _A[i] == _B[j] else max(below[j], row[j + 1])
    return rows[0][0] + sum(1 for record in records if record.key < 0)


class SpeedProbe:
    def __init__(self) -> None:
        self.at: list[float] = []  # clock() when each probe started
        self.took: list[float] = []  # each probe's duration
        self._probe_time = 0.0
        self._busy = False
        self._records = [_Record(k) for k in range(20000)]

    def clock(self) -> float:
        """perf_counter() less the time spent in probes."""
        while True:
            spent = self._probe_time
            now = time.perf_counter()
            if spent == self._probe_time:  # no probe ran in between
                return now - spent

    def _sample(self, *_signal_args) -> None:
        if self._busy:  # the timer fired inside a probe
            return
        self._busy = True
        start = time.perf_counter()
        reference_work(self._records)
        elapsed = time.perf_counter() - start
        self.at.append(start - self._probe_time)
        self.took.append(elapsed)
        self._probe_time += elapsed
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Probe every INTERVAL_S for the length of the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample()
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def factor(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return (NOMINAL_S / _typical(self.took[lo:hi] or self.took)) ** ELASTICITY

    def scaled(self, timings: list[tuple[float, float]]) -> list[float]:
        """Reference-speed durations of (start, elapsed) clock() timings."""
        return [elapsed * self.factor(start, start + elapsed) for start, elapsed in timings]

    def overall(self) -> float:
        return (NOMINAL_S / _typical(self.took)) ** ELASTICITY


def _typical(times: list[float]) -> float:
    ordered = sorted(times)
    cut = len(ordered) // 10
    middle = ordered[cut : len(ordered) - cut]
    return math.exp(sum(math.log(t) for t in middle) / len(middle))
