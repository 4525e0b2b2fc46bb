"""Host-speed-normalised time.

The reference machine (2 vCPUs of a shared host) changes speed by up to 2x
in stretches of a second to a few minutes, in user CPU time as much as in
wall time, so a raw time cannot tell a 25 % regression from a busy host.

While a pass runs, ``HostClock`` interrupts it every ``INTERVAL_S`` (SIGALRM)
and runs ``_slice``, a fixed exact-arithmetic loop of the same kind as the
workloads' own work; how long the slice takes measures the host's speed at
that moment.  ``seconds(a, b)`` is the time from ``a`` to ``b`` without the
slices inside it, each stretch between two slices scaled by ``REF_SLICE_S``
over the mean cost of those two slices: the time the interval would take
on a host where the slice takes ``REF_SLICE_S`` (the reference machine's
fast state).  The host's speed also jitters by about 10 % from one
millisecond to the next, and a short op meets that jitter whatever the
clock does; slices taken often track the slower changes best (in trials
on the reference machine, short slices every 25 ms held the coefficient of
variation of a pass's normalised time to 1.5-3 %, slices twice as long
every 50 ms to 2-4 %, and averaging over more slices did worse).  The
slices cost about 3 % of a pass.

All times are ``time.perf_counter()`` values (CLOCK_MONOTONIC, shared by
every process on the machine).
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.025
SLICE_TERMS = 250
REF_SLICE_S = 0.00075


def _slice() -> Fraction:
    total = Fraction(0)
    for i in range(1, SLICE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return total


class HostClock:
    def __init__(self):
        self.starts: list[float] = []  # of each slice, in time order
        self.costs: list[float] = []

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        t0 = perf_counter()
        _slice()
        self.costs.append(perf_counter() - t0)
        self.starts.append(t0)

    def seconds(self, a: float, b: float) -> float:
        """Reference-speed seconds from a to b, less the slices in it.  The
        stretch before the first slice and after the last one take the speed
        of that slice."""
        starts, costs = self.starts, self.costs
        total = 0.0
        # gap j runs from the end of slice j-1 (or -inf) to the start of slice j (or +inf)
        j = bisect.bisect_right(starts, a)
        while True:
            lo = starts[j - 1] + costs[j - 1] if j > 0 else a
            if lo >= b:
                return total
            hi = starts[j] if j < len(starts) else b
            width = min(b, hi) - max(a, lo)
            if width > 0:
                around = costs[max(j - 1, 0):j + 1]
                total += width * REF_SLICE_S * len(around) / sum(around)
            if j >= len(starts):
                return total
            j += 1
