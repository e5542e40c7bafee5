"""Machine-speed calibration for the benchmark's time metrics.

On a shared machine the speed available to one process drifts by tens of
percent over tens of seconds, for every program at once.  Runs therefore
interleave this fixed loop (benchmark code, never confrac) with the
workload, outside every timed operation, and report times scaled to
``REFERENCE_RATE``:

    reported time = measured time * (measured loop rate / REFERENCE_RATE)

The loop mixes what the package spends its time on: ``eval`` of a small
compiled expression with a fresh locals dict, float arithmetic, tuple and
list allocation, and a tight integer loop.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

# loop runs per second on an idle 2-core Xeon container under Python 3.11
REFERENCE_RATE = 250.0

_CODE = compile("(math.exp(-t*alpha)+math.sin(t))*t/(1.0+alpha)", "<calibration>", "eval")
_GLOBALS = {"math": math, "__builtins__": {}}


def _loop() -> float:
    acc = 0.0
    keep = []
    for i in range(2000):
        t = i * 0.001
        acc += eval(_CODE, _GLOBALS, {"t": t, "alpha": 0.5})
        keep.append((t, [i]))
        if len(keep) > 300:
            del keep[:150]
    s = 0
    for i in range(20000):
        s += i * i % 7
    return acc + s


# at most one loop per 0.2 s: about 2% of a run's time
INTERVAL_NS = 200_000_000


class Calibration:
    """Samples the loop at most every ``INTERVAL_NS`` while a run goes on."""

    def __init__(self):
        self.loops = 0
        self.loop_ns = 0
        self._last = 0

    def sample(self, force: bool = False) -> None:
        now = perf_counter_ns()
        if not force and now - self._last < INTERVAL_NS:
            return
        _loop()
        end = perf_counter_ns()
        self.loops += 1
        self.loop_ns += end - now
        self._last = end

    @property
    def rate(self) -> float:
        return self.loops / (self.loop_ns / 1e9)

    @property
    def scale(self) -> float:
        """Factor that turns a measured time into a reference-speed time."""
        return self.rate / REFERENCE_RATE
