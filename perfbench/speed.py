"""Host speed probe: times measured at a fixed reference speed.

On a shared host (the benchmark was tuned on 2 vCPUs of a Xeon) the speed
drifts by up to 1.7x, in states that last from seconds to minutes, as other
tenants load the same cores.  A median over a 30-s run does not remove a
slow state that lasts the whole run, so two sets of runs of the same code
can differ by 20%.

So while a job runs, a fixed pure-Python loop is timed every
``INTERVAL_S`` of wall time (SIGALRM), and once before and once after it.
Each stretch of wall time between two probes counts at the mean of the
speeds the probes at its two ends measured, relative to ``REF_S``, the time
the loop takes when the host is fast.  The sum is the job's time at the
reference speed: what it would have taken had the host stayed fast.  A
change that makes the program do more work still shows one to one; a host
that slows down for a minute no longer does.  The probes' own time is left
out of both the raw and the rescaled figure.

The loop stands for the interpreter-bound work that most of vlab is
(``Fraction`` and big-integer arithmetic, Python loops around numpy calls).
Stretches without a probe, such as one long numpy call, take the speeds of
the probes around them.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

#: iterations of the probe loop, about 1.1 ms on a fast 2-vCPU Xeon host
LOOPS = 15_000

#: the probe's time at the reference speed; sets the scale of rescaled times
REF_S = 0.0011

#: wall time between probes while a job runs (about 1.5% of it is probing)
INTERVAL_S = 0.1


def probe() -> Tuple[float, float]:
    """(start, seconds) of one run of the probe loop."""
    start = time.perf_counter()
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return start, time.perf_counter() - start


def rescale(samples: List[Tuple[float, float]]) -> Tuple[float, float]:
    """(raw, reference) seconds of the wall time between probe ``samples``,
    leaving the probes' own time out."""
    raw = ref = 0.0
    for (s0, d0), (s1, d1) in zip(samples, samples[1:]):
        gap = s1 - s0 - d0
        raw += gap
        ref += gap * (REF_S / d0 + REF_S / d1) / 2
    return raw, ref


class Probed:
    """Context manager that probes the host speed before, during (every
    ``INTERVAL_S``) and after its body.  ``seconds`` is then (raw,
    reference) seconds of the body."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._busy = False
        self._old = None

    def _on_alarm(self, signum, frame):
        if self._busy:  # a probe delayed past the next alarm: skip that one
            return
        self._busy = True
        try:
            self.samples.append(probe())
        finally:
            self._busy = False

    def __enter__(self):
        self.samples = [probe()]
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(probe())
        return False

    @property
    def seconds(self) -> Tuple[float, float]:
        return rescale(self.samples)
