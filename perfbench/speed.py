"""The host's speed, sampled all through a run, to rescale measured times.

The benchmark runs on shared machines whose speed drifts by up to half, in
phases that last from a fraction of a second to minutes.  A Speedometer
interrupts the process every TICK_S seconds (SIGALRM, whose handler Python
runs in the main thread between bytecodes) and times a fixed computation of
the benchmark's own there: counting the nowhere-zero Z4-flows of the wheel
W6 with the reference counter, which never calls flowpoly.  A measured
interval is rescaled by taking out the time spent in those interruptions
and multiplying by NOMINAL_CALIBRATION_S over the median calibration time
within WINDOW_S of the interval.  The result is the time the interval would
take on a host where the calibration takes NOMINAL_CALIBRATION_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import reference as ref

TICK_S = 0.01  # one calibration per this much wall time
WINDOW_S = 0.1  # calibrations this close to an interval set its scale
MIN_SAMPLES = 5  # fewest calibrations a scale is taken from
NOMINAL_CALIBRATION_S = 0.0005

_W6 = (7, [(i, (i + 1) % 6) for i in range(6)] + [(i, 6) for i in range(6)])
_Z4 = ref.Group((4,))
_W6_Z4_FLOWS = 66  # F(W6; 4) = 2^6 + 2, from the wheel's closed form


def calibrate() -> float:
    """Seconds one calibration takes now."""
    start = time.perf_counter()
    count = ref.count_nz_flows(*_W6, _Z4, [0] * _W6[0], 10**9)
    elapsed = time.perf_counter() - start
    if count != _W6_Z4_FLOWS:
        raise RuntimeError(f"calibration counted {count} Z4-flows of W6, not {_W6_Z4_FLOWS}")
    return elapsed


class Speedometer:
    """Calibrations taken on a timer, and the rescaled length of intervals.

    ``clock()`` marks the ends of an interval and ``rescale(begin, end)``
    gives its length at nominal speed, or as measured when no calibration
    was ever taken (a speedometer that was not started).
    """

    def __init__(self) -> None:
        self.marks: list[float] = []  # start of each calibration
        self.times: list[float] = []
        self.paused = 0.0  # seconds spent in calibrations so far
        self._busy = False

    def start(self) -> None:
        """Calibrate MIN_SAMPLES times now, then every TICK_S seconds."""
        for _ in range(MIN_SAMPLES):
            self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a calibration is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self.times.append(calibrate())
        self.marks.append(start)
        self.paused += time.perf_counter() - start
        self._busy = False

    def clock(self) -> tuple[float, float]:
        return time.perf_counter(), self.paused

    def rescale(self, begin: tuple[float, float], end: tuple[float, float]) -> float:
        (t0, p0), (t1, p1) = begin, end
        lo = bisect.bisect_left(self.marks, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.marks, t1 + WINDOW_S)
        if not self.times:
            return t1 - t0
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.marks)):
            lo, hi = max(0, lo - 1), min(len(self.marks), hi + 1)
        scale = NOMINAL_CALIBRATION_S / statistics.median(self.times[lo:hi])
        return (t1 - t0 - (p1 - p0)) * scale
