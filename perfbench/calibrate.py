"""Host speed from a fixed calibration loop sampled while the program runs.

A shared host runs this benchmark's CPU at speeds up to about 1.9x apart,
switching every 10-100 ms, with the share of slow time drifting over
minutes; CPU time moves with wall time, so neither clock alone is steady.
The calibration unit below does a fixed amount of work with the same mix
as the program (interpreted Python plus numpy on small complex arrays)
and does not depend on the program.  While a Sampler is on, an interval
timer runs one unit every INTERVAL_S inside the op being measured, so the
units see the host's speed in the same milliseconds the op ran in; their
time is subtracted from the op's.  Scaling a measured time by
``REFERENCE_UNIT_S / mean unit time`` converts it to seconds at the speed
the unit had when the benchmark was defined.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Mean time of one unit on the host the benchmark was defined on, a
# 2-CPU shared VM (Python 3.11, numpy 2.4) under light load.
REFERENCE_UNIT_S = 0.70e-3
INTERVAL_S = 7e-3     # about one unit per 7 ms of op time: a tenth of it

_Z = np.exp(1j * np.linspace(0.0, 6.0, 256)) * 0.9


def unit() -> float:
    """One calibration unit: about 0.7 ms of fixed work."""
    acc = 0
    for i in range(1500):
        acc += (i * 7) % 13
    z = _Z
    for _ in range(30):
        w = (z - 0.3) / (1.0 - 0.3 * z)
        z = w * np.abs(w).mean()
    return acc + float(z.real.sum())


class Sampler:
    """Runs a unit from a SIGALRM handler every INTERVAL_S of wall time while
    on.  Switching off keeps the time left to the next sample, so short ops
    are sampled in proportion to their length.  ``spent`` sums the units'
    time; ``units`` holds each unit's duration since the last take_scale."""

    def __init__(self):
        self.units = []
        self.spent = 0.0
        self._active = False
        self._left = INTERVAL_S
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if not self._active:
            return
        t0 = time.perf_counter()
        unit()
        spent = time.perf_counter() - t0
        self.units.append(spent)
        self.spent += spent

    def on(self) -> None:
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self._left, INTERVAL_S)

    def off(self) -> None:
        self._active = False
        left, _ = signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._left = left if left > 0.0 else INTERVAL_S

    def close(self) -> None:
        self.off()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take_scale(self, min_units: int = 20) -> float:
        """REFERENCE_UNIT_S over the mean unit time since the last call;
        runs units directly to make up ``min_units``."""
        while len(self.units) < min_units:
            self._active = True
            self._sample(signal.SIGALRM, None)
            self._active = False
        mean = sum(self.units) / len(self.units)
        self.units = []
        return REFERENCE_UNIT_S / mean
