"""An in-process CPU speed probe, so timings can be scaled to one reference speed.

On a shared virtual machine the same single-threaded work can take up to
twice as long when neighbours load the physical core, and that state
flips within seconds. Wall time then measures the neighbours more than
the program. `SpeedProbe` samples the current speed while an operation
runs: every 20 ms of wall time a signal handler times a fixed piece of
Python work. The operation's wall time is then scaled by
`PROBE_REF_S / mean probe time`, i.e. to the speed at which the probe
takes PROBE_REF_S. On an uncontended core the scaled time is close to
wall time; the probe costs under 1% of the run.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_REF_S = 8.5e-5    # probe time on an uncontended Intel Xeon vCPU (Python 3.11)
PROBE_EVERY_S = 0.02

# The probe mixes interpreter arithmetic, small allocations with hashing,
# and string work: each alone tracked some operations' slowdown better
# than others.
_WORDS = [f"tok{i}" for i in range(200)]
_TEXT = " ".join(_WORDS[:40])


def _probe_once() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(1000):
        x += i
    counts: dict = {}
    for i in range(100):
        key = (_WORDS[i % 200], _WORDS[(i * 7) % 200])
        counts[key] = counts.get(key, 0) + 1
    for _ in range(12):
        x += len(set(_TEXT.lower().split()))
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager: samples probe times for as long as it is open."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _handler(self, signum, frame):
        self.samples.append(_probe_once())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < 5:   # operations shorter than a few periods
            self.samples.append(_probe_once())

    def factor(self) -> float:
        """Multiply a wall time measured under this probe by this factor.

        Samples are evenly spaced in wall time, so their mean is the mean
        slowness over the operation. The top and bottom tenth are cut: a
        probe that is itself descheduled says nothing about the operation.
        """
        s = sorted(self.samples)
        cut = len(s) // 10
        return PROBE_REF_S / statistics.fmean(s[cut:len(s) - cut])
