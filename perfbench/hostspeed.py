"""Host-speed sampling, so timings can be read at a fixed host speed.

The benchmark runs on a vCPU of a shared host.  Interference from
outside the guest slows its cores by up to about 2x, in stretches that
last from a second to several minutes; the guest sees no steal time, so
CPU time slows with wall time.  A statistic taken over one run cannot
undo a stretch that covers the whole run.

So while a run measures, :class:`SpeedSampler` runs a fixed probe in
the benchmark's own process every :data:`INTERVAL_S` seconds, from a
``SIGALRM`` handler, and records the probe's thread CPU time.  The probe
is the same work every time and independent of the program, so its CPU
time tracks only how fast the core runs: a mix of interpreter work
(most of the program is Python) and numpy kernels in and out of cache.
CPU time, not wall time, so that time spent waiting for a core that the
run's own service workers hold does not count as a slow host.

:func:`seconds` converts a measured interval to *reference seconds*:
wall time, minus the probes run inside it, scaled by
``REFERENCE_PROBE_S / mean probe time`` over the samples taken during
(or, for short intervals, nearest to) the interval.  On a quiet
reference host the two agree; on a slowed host the reference figure
stays put while the wall figure grows.  The raw wall times are recorded
beside them.  Forked children inherit the handler but not the timer, so
only the benchmark process samples.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Optional, Tuple

import numpy as np

#: Seconds between probes.
INTERVAL_S = 0.05

#: Mean probe CPU time on the reference host (a 2-vCPU Intel Xeon VM,
#: Python 3.11, numpy 2.4) in a quiet stretch.  It fixes the scale of
#: reference seconds only; ratios between commits do not depend on it.
REFERENCE_PROBE_S = 0.45e-3

#: Samples averaged for an interval that holds fewer probes than this.
MIN_SAMPLES = 8

_MATRIX = np.random.default_rng(0).random((40, 40))
_VECTOR = np.linspace(0.0, 1.0, 1 << 15)  # 256 KiB: beyond L1


def probe() -> float:
    """The fixed probe work; its result only keeps it from being trivial."""
    total = 0.0
    table = {}
    for i in range(3000):
        total += (i * 7) % 13
        table[i & 63] = total
    total += float((_MATRIX @ _MATRIX)[0, 0])
    total += float(np.dot(_VECTOR, _VECTOR))
    return total + len(table)


class SpeedSampler:
    """Probe samples ``(wall start, wall end, thread CPU seconds)``."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.samples: List[Tuple[float, float, float]] = []
        self._busy = False
        self._previous: Optional[object] = None

    def _handle(self, signum: int, frame: object) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            cpu = time.thread_time()
            probe()
            cpu = time.thread_time() - cpu
            self.starts.append(start)
            self.samples.append((start, time.perf_counter(), cpu))
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < MIN_SAMPLES:
            if len(self.samples) < MIN_SAMPLES:
                return end - start
            middle = bisect.bisect_left(self.starts, 0.5 * (start + end))
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.samples) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        window = self.samples[lo:hi]
        inside = sum(
            min(stop, end) - max(begin, start)
            for begin, stop, _ in window
            if begin < end and stop > start
        )
        mean_cpu = sum(cpu for _, _, cpu in window) / len(window)
        return (end - start - inside) * REFERENCE_PROBE_S / mean_cpu


#: The sampler of the current run, if one is running.  Module state on
#: purpose: ``SIGALRM`` and its timer are process-wide, so a process can
#: run only one sampler, and the workloads' timing sites reach it here.
_active: Optional[SpeedSampler] = None


def start() -> SpeedSampler:
    """Start sampling; returns once :data:`MIN_SAMPLES` probes are in, so
    every interval of the run is converted the same way."""
    global _active
    _active = SpeedSampler()
    _active.start()
    while len(_active.samples) < MIN_SAMPLES:
        time.sleep(INTERVAL_S)
    return _active


def stop() -> None:
    global _active
    if _active is not None:
        _active.stop()
    _active = None


def seconds(start: float, end: float) -> float:
    """Reference seconds of ``[start, end]``; wall seconds with no sampler."""
    if _active is None:
        return end - start
    return _active.seconds(start, end)
