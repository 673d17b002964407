"""Wall time expressed at a reference host speed.

Shared virtual machines drift in speed.  On the 2-vCPU host this
benchmark was tuned on, the same work took up to twice as long from one
minute to the next, in spells lasting seconds to minutes, so no
statistic taken inside a 20-second run could hold a figure steady.

Every timed interval is therefore bracketed by a fixed probe: a few
milliseconds of interpreter and small-array numpy work that does not
touch the program under test.  The interval is scaled by
``NOMINAL_PROBE_S`` over the median of the probes around it, which
expresses it at the speed at which the probe takes ``NOMINAL_PROBE_S``.
A change to the program moves the interval, never the probe, so a
regression still shows.  A host that runs everything 1.6x slower moves
both, and the scaled figure stays put.  Scaled this way, the spread of
single work items over a 150-second window fell from 40-50% to 8-16%.
The wall-clock figures are printed beside the result.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

import numpy as np

#: The probe's duration on the reference host in its fast state.
NOMINAL_PROBE_S = 0.004

#: An interval is scaled by the median probe within this many seconds
#: of it: host spells last seconds or more, single probes jitter.
SMOOTHING_S = 1.0

_ARRAY = np.arange(2048, dtype=np.float64)


def _probe() -> float:
    total = 0
    table = {}
    for i in range(14000):
        total += i * i
        table[i & 255] = total & 0xFFFF
    acc = 0.0
    for _ in range(150):
        acc += float(np.sqrt(_ARRAY * _ARRAY + 1.0).sum())
    return acc + total


class HostClock:
    """A log of probes, and intervals scaled by the probes around them."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []

    def probe(self) -> None:
        """Time the probe once; call it between work items."""
        started = time.perf_counter()
        _probe()
        self.starts.append(started)
        self.durations.append(time.perf_counter() - started)

    def reference_s(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` (``perf_counter`` readings)
        at the reference speed, less any probe that ran in between."""
        inside = self.durations[
            bisect.bisect_left(self.starts, start) : bisect.bisect_right(self.starts, end)
        ]
        lo = bisect.bisect_left(self.starts, start - SMOOTHING_S)
        hi = bisect.bisect_right(self.starts, end + SMOOTHING_S)
        around = self.durations[max(lo - 1, 0) : hi + 1]
        return (end - start - sum(inside)) * NOMINAL_PROBE_S / statistics.median(around)
