"""Host-speed probe that takes CPU-speed drift out of wall times.

On a shared virtual machine a vCPU's instruction throughput can drift by
tens of percent over seconds to minutes, independently per vCPU and with
no steal time to show for it.  The probe samples that speed on the measured thread
itself: a real-time interval timer runs a fixed pure-Python loop every
``INTERVAL`` seconds and records its speed.  Over any stretch of work,
wall seconds times the mean sampled speed, in units of the reference
speed, gives the seconds the work would take at the reference speed.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.02     # seconds between samples
LOOP = 1000         # iterations of the probe loop (~70 us, ~0.4% overhead)
REFERENCE_S = 7e-5  # probe loop seconds at the reference host speed


class SpeedProbe:
    """Context manager that samples host speed on the main thread."""

    def __init__(self):
        self._speeds: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        s = 0
        for i in range(LOOP):
            s += i * i
        self._speeds.append(1.0 / (time.perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reset(self) -> None:
        """Start a new stretch of samples."""
        self._speeds = []

    def speed(self) -> float:
        """Mean host speed over the current stretch, relative to the
        reference speed."""
        speeds = self._speeds
        if not speeds:
            raise RuntimeError("no host-speed samples in this stretch")
        return sum(speeds) / len(speeds) * REFERENCE_S
