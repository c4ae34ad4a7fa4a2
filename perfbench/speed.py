"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On a shared virtual CPU the throughput of the same Python code drifts by up
to about 2x within seconds, far more than the changes the benchmark must
resolve.  A fixed kernel (exact rational arithmetic plus small numpy matrix
products, the two kinds of work ``lsa`` does) is run from a SIGALRM handler
every ``SAMPLE_EVERY_S`` of wall time, inside whatever the process is doing.
An operation's time is its wall time minus the kernel runs inside it,
scaled by ``REFERENCE_S`` over the mean kernel time during it (including
the samples just before and after).  Reported times are thus "seconds on a
machine where the kernel takes ``REFERENCE_S``"; raw wall times are kept
alongside.  The kernel is the benchmark's own code, so no change to ``lsa``
can move it.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction as F

import numpy as np

# About the kernel's time on the machine the benchmark was defined on (2 vCPU
# at 2.1 GHz, CPython 3.11, numpy 2.4) in its faster state.
REFERENCE_S = 0.004
SAMPLE_EVERY_S = 0.1

_M = [
    [F(1, 2), F(-1, 3), F(2), F(0)],
    [F(1), F(3, 4), F(-2, 5), F(1, 3)],
    [F(0), F(1, 7), F(1), F(-1)],
    [F(2, 3), F(0), F(1, 2), F(-3, 2)],
]
_A = np.array([[1.0, 0.5, 0.25], [0.1, 1.0, -0.3], [0.2, 0.0, 1.0]])


def kernel() -> tuple[F, float]:
    """Fixed work: four Faddeev-LeVerrier passes over a 4x4 rational matrix
    and sixty normalized 3x3 float products with a determinant each."""
    n, acc = len(_M), F(0)
    for _ in range(4):
        mk, c = _M, F(1)
        for k in range(1, n + 1):
            if k > 1:
                t = [[mk[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
                mk = [[sum((_M[i][m] * t[m][j] for m in range(n)), F(0)) for j in range(n)] for i in range(n)]
            c = -sum(mk[i][i] for i in range(n)) / k
        acc += c
    x, dets = _A, 0.0
    for _ in range(60):
        x = x @ _A
        x = x / np.max(np.abs(x))
        dets += float(np.linalg.det(x))
    return acc, dets


class SpeedTrack:
    """Kernel samples taken by an interval timer while the track is open."""

    def __init__(self):
        self.start: list[float] = []
        self.end: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.start.append(t0)
            self.end.append(t1)
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedTrack":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.start), np.asarray(self.end)

    def kernel_inside(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Kernel time spent inside each interval [t0, t1]."""
        start, end = self.arrays()
        cum = np.concatenate([[0.0], np.cumsum(end - start)])
        lo = np.searchsorted(start, t0, side="left")
        hi = np.searchsorted(end, t1, side="right")
        return np.maximum(cum[hi] - cum[lo], 0.0)

    def scale(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """REFERENCE_S over the mean kernel time from the last sample before
        each interval to the first sample after it."""
        start, end = self.arrays()
        cum = np.concatenate([[0.0], np.cumsum(end - start)])
        lo = np.maximum(np.searchsorted(end, t0, side="right") - 1, 0)
        hi = np.minimum(np.searchsorted(start, t1, side="left") + 1, len(start))
        return REFERENCE_S * (hi - lo) / (cum[hi] - cum[lo])
