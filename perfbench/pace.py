"""How fast the shared host ran during a run, measured from inside it.

The benchmark runs on a shared machine whose speed moves by 10 to 50%
between phases that last from milliseconds to minutes, and now and then
runs at half speed for a whole run, while other tenants load the same
cores and caches.  The runner takes each stretch of a pass at its fastest
over the run's passes, which removes the short phases.  ``Pace`` measures
what is left: the host's best speed during the run.

While installed, a real-time interval timer raises SIGALRM every
``period`` seconds, and the handler (in the main thread; no extra thread
is started) times one tick of fixed work, the yardstick: a walk over a
table of a few hundred kilobytes, made once untimed so the table is back
in cache, then once timed.  A warm walk is slowed by neighbours that load
the core or the caches, as the program is, but not by the program's own
use of the caches since the last tick (a cold walk is, and a run's floor
then depends on the workload); a pure arithmetic loop misses the
neighbours' cache load, and follows a host that stays slow for a whole run
only part of the way.  It never touches the package being measured.  The
run's floor is the 5th percentile of its ticks, and ``scale()`` is
``REFERENCE_TICK_S`` over that floor: multiplied by it, a best time of the
run becomes the time on a host whose floor is the reference.  The
reference is a constant, so a run on a host that stayed slow throughout
is scaled down, and a run that met a quiet moment is not scaled up by
chance.  ``REFERENCE_TICK_S`` is about the floor on the host the benchmark
was built on (a shared 2-vCPU Intel Xeon VM, Python 3.11.7); on another
host or Python the figures still compare with each other, but they are no
longer that host's seconds.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

PERIOD_S = 0.01
REFERENCE_TICK_S = 16.5e-6
FLOOR_PERCENTILE = 5
MIN_TICKS = 20            # a span with fewer ticks is not scaled

_rng = random.Random(5)
_TABLE = [(i, i * 3 % 17, str(i)) for i in range(4096)]
_INDEX = {row[2]: row for row in _TABLE}
_WALK = tuple(_rng.randrange(len(_TABLE)) for _ in range(160))


def yardstick() -> int:
    """Fixed work, independent of the package being measured."""
    acc = 0
    for i in _WALK:
        row = _TABLE[i]
        acc ^= row[0] + _INDEX[row[2]][1]
    return acc


class Pace:
    """Tick while installed; use ``install`` and ``uninstall`` in a
    try/finally, then read ``scale``."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.ticks: list[float] = []
        self.times: list[float] = []    # when each tick started
        self._previous = None

    def _handler(self, signum, frame) -> None:
        yardstick()
        t0 = time.perf_counter()
        yardstick()
        self.ticks.append(time.perf_counter() - t0)
        self.times.append(t0)

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def floor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """The floor of the ticks between two ``time.perf_counter``
        readings (all of the run's by default): their 5th percentile, in
        seconds; the reference when there are too few."""
        ticks = [d for t, d in zip(self.times, self.ticks) if start <= t <= end]
        if len(ticks) < MIN_TICKS:
            return REFERENCE_TICK_S
        return statistics.quantiles(ticks, n=100)[FLOOR_PERCENTILE - 1]

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """What a best time, taken between two ``time.perf_counter``
        readings, is multiplied by."""
        return REFERENCE_TICK_S / self.floor(start, end)

    def slowdown(self) -> float:
        """Median tick over the floor: how much slower the host ran than
        at its best during the run; 1.0 for a run with too few ticks."""
        if len(self.ticks) < MIN_TICKS:
            return 1.0
        return statistics.median(self.ticks) / self.floor()
