"""Machine-speed gauge: a fixed pure-Python loop, timed every EVERY_S seconds.

On a shared host the same Python code runs up to 1.6 times slower for
seconds at a time (other tenants contend for the core), so raw wall times of
one commit spread by 20-30% from run to run. Times are therefore reported
scaled by ``factor = REFERENCE_S / t``, where ``t`` is the mean time of the
calibration loop just before and just after the work: seconds on a machine
where that loop takes REFERENCE_S. The loop does what the compiler does
most (string formatting, dict updates, sorting), and it does not depend on
the code under test.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

REFERENCE_S = 0.004  # the loop's time on an idle 2.0 GHz Xeon core
EVERY_S = 0.03


def _calibration_work() -> int:
    table: dict[str, int] = {}
    for i in range(4000):
        key = f"n{i % 997}_{i}"
        table[key] = table.get(key[:3], 0) + len(key)
    return len(sorted(table.items(), key=lambda kv: (kv[1], kv[0])))


def sample() -> float:
    """Seconds one calibration loop takes now."""
    start = perf_counter()
    _calibration_work()
    return perf_counter() - start


class Gauge:
    """Scales work by the mean speed of the calibrations before and after it."""

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._pending: list[Callable[[float], None]] = []
        self._last = sample()
        self._at = perf_counter()

    def defer(self, apply: Callable[[float], None]) -> None:
        """Call ``apply(factor)`` for work done since the last calibration."""
        self._pending.append(apply)

    def tick(self, force: bool = False) -> None:
        """Calibrate if EVERY_S has passed (or ``force``) and settle deferred work."""
        if not force and perf_counter() - self._at < EVERY_S:
            return
        now = sample()
        factor = 2 * REFERENCE_S / (self._last + now)
        self.factors.append(factor)
        for apply in self._pending:
            apply(factor)
        self._pending.clear()
        self._last = now
        self._at = perf_counter()
