"""In-band measure of how fast this core runs, to scale wall times by.

On a shared host a core's speed changes from second to second: another
tenant, probably on the same physical core, can make the same code take up to twice
as long, independently on each core.  A separate probe before or after an
operation, or one on the other core, misses the state the operation ran
in.  So the probe runs inside the timed interval itself: a real-time
interval timer raises SIGALRM every `INTERVAL_S`, and the handler runs a
fixed ~0.5 ms kernel, a pure-Python label-counting sweep like Louvain's
local moves, and records when it started and how long it took.  Pure
Python tracked the operations' slowdowns best; adding a small eigensolve
or a memory-bound gather made the scaled times noisier.

An interval's net time is its wall time minus the probe time inside it;
its scaled time is the net time times `REFERENCE_PROBE_S` over the mean
probe time observed over it.  The kernel is fixed here and shares no code
with cosub, so a change to cosub moves the scaled times and never the
probe.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
# The probe's median time on an uncontended core of the two-core host the
# benchmark was tuned on; it only sets the scale of the reported seconds.
REFERENCE_PROBE_S = 0.5e-3
# An interval with fewer probes inside borrows the nearest ones in time.
MIN_PROBES = 5

_rng = np.random.default_rng(20150918)
_NEIGHBOURS = [_rng.choice(300, 6, replace=False).tolist() for _ in range(300)]


def _kernel() -> None:
    labels = list(range(300))
    weights: dict = {}
    for u, nbrs in enumerate(_NEIGHBOURS):
        weights.clear()
        for v in nbrs:
            weights[labels[v]] = weights.get(labels[v], 0) + 1
        labels[u] = max(weights, key=weights.get)


class SpeedProbe:
    """Probe samples (start, duration) taken while installed and not paused.

    A traced call pauses the probe, so that no probe time lands in a span;
    its speed then comes from the probes nearest to it in time.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.paused = False
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if self._busy or self.paused:
            return
        self._busy = True
        start = perf_counter()
        _kernel()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        for _ in range(20):
            _kernel()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def inside(self, t0: float, t1: float) -> float:
        """Probe time spent inside [t0, t1]."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        return sum(self.durations[lo:hi])

    def scale(self, t0: float, t1: float) -> tuple[float, int]:
        """Factor from net seconds over [t0, t1] to reference seconds, and
        the number of probes it rests on: those inside, or with fewer than
        MIN_PROBES inside, the MIN_PROBES nearest to the interval's middle."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)
        if hi - lo < MIN_PROBES and len(self.starts) >= MIN_PROBES:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo = min(max(0, mid - MIN_PROBES // 2), len(self.starts) - MIN_PROBES)
            hi = lo + MIN_PROBES
        if hi <= lo:
            return 1.0, 0
        return REFERENCE_PROBE_S / statistics.fmean(self.durations[lo:hi]), hi - lo
