"""Host speed, sampled from inside the measured process.

The vCPUs this benchmark was tuned on change speed by up to half within
seconds and drift over minutes. Raw seconds then compare the host, not the
code. A child that measures therefore times a fixed numpy kernel every
``INTERVAL`` seconds from a SIGALRM handler, in the same thread as the
work, and converts each raw time to seconds at a reference speed:

    normalised = (raw - time spent in the kernel) * mean(REFERENCE_S / kernel_s)

The mean of speed ratios over samples evenly spaced in time is the right
weight: a stretch that runs at half speed does half the work per second.
The kernel (small gemm, ReLU, row sum, 100 times) is dispatch-bound like the
reference-task training step. It uses no pctlab code, so a change to pctlab
moves the normalised times exactly as it moves the work.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

import numpy as np

INTERVAL = 0.1          # seconds between samples
REFERENCE_S = 1.3e-3    # the kernel's time at this machine's usual speed
BURST = 5               # samples taken right after a window too short to hold ticks

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 20))
_B = _rng.standard_normal((20, 32))


def kernel() -> None:
    for _ in range(100):
        np.maximum(_A @ _B, 0.0).sum(axis=1)


class HostSpeed:
    """Samples of the kernel's time, as (monotonic end time, seconds)."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:          # a tick during a sample is dropped
            return
        self._busy = True
        start = time.monotonic()
        kernel()
        end = time.monotonic()
        self.samples.append((end, end - start))
        self._busy = False

    def start(self) -> None:
        kernel()                # the first call pays one-off costs; not a sample
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def normalise(self, raw: float, start: float, end: float,
                  extra: int = 0) -> Tuple[float, int]:
        """``raw`` seconds measured over [start, end] at the reference speed,
        and the number of samples that gave the speed.

        Samples that ended inside the window are subtracted from ``raw``;
        they and ``extra`` samples taken after it give the speed.
        """
        inside = [d for t, d in self.samples if start < t <= end]
        after = [d for t, d in self.samples if t > end][:extra]
        speed = [REFERENCE_S / d for d in inside + after]
        return (raw - sum(inside)) * sum(speed) / len(speed), len(speed)
