"""Speed probe: report times in reference seconds.

On a 2-vCPU Intel Xeon VM with a shared host, the
same pure-Python computation ran 10-30% slower from one minute to the next
(verify-corpus took anywhere from 26 s to 38 s), so raw times spread wider
than any useful regression bound.

The probe runs a fixed computation every PERIOD_S of process CPU time,
from a SIGPROF handler, and records how long it took.  The computation is
exact rational arithmetic on a small dict polynomial: stdlib only,
independent of unicusp.  ``factor()`` is REFERENCE_S over the mean probe
duration.  A raw time, minus the probe's own time, times the factor is the
time the work would take on a machine where the probe takes REFERENCE_S.
A change to unicusp cannot move the probe, so it shows in full.  On that
VM, ten 7 s runs of one singular-point search spread 16% raw and 2%
in reference seconds, and eight 19 s degree-75 pullbacks 20% raw and 5%.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
WARM_UP = 20
# About the probe's duration inside a worker on that VM, so
# reference seconds stay close to its wall seconds.
REFERENCE_S = 0.0005

_TERMS = [((i, j), Fraction(i + 1, j + 2)) for i in range(4) for j in range(4 - i)]


def probe_work() -> dict:
    """Square a 10-term bivariate polynomial with Fraction coefficients."""
    out: dict = {}
    for (i, j), c in _TERMS:
        for (k, l), d in _TERMS:
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return out


class SpeedProbe:
    """Samples the machine's speed while the process computes."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        # Collection of the program's heap must not land inside a sample.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            probe_work()
            took = time.perf_counter() - start
            self.samples.append(took)
            self.spent += took
        finally:
            if enabled:
                gc.enable()

    def start(self) -> None:
        # The interpreter specializes the probe's code over its first calls;
        # warm it up so that early samples are not slower.  The warm-up
        # counts as probe time.
        start = time.perf_counter()
        for _ in range(WARM_UP):
            probe_work()
        self.spent += time.perf_counter() - start
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def factor(self, since: int = 0) -> float:
        """REFERENCE_S over the mean of the samples from index ``since``
        on (1.0 without samples)."""
        window = self.samples[since:]
        return REFERENCE_S / statistics.fmean(window) if window else 1.0
