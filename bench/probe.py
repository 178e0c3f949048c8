"""Host-speed probe: report measured times at a reference host speed.

The shared 2-vCPU host this benchmark was built on changes speed by
10-50% from one few-second window to the next, for every process alike.
A fixed piece of pure-Python work, timed at each operation boundary,
tracks that drift closely: over five minutes of one fixed machine run
interleaved with a 5 ms version of this probe, the two correlated at
0.95, and dividing the run's time by the probe's cut its spread from
7.1% to 1.6%.

The probe is the benchmark's own code, so no change to the program can
move it.  It runs only while none of the workload's work is in flight
(between operations, or at a point where the serve clients have
drained), so it measures the host and not contention the program under
test causes.  Each probe gives the host's *slowness* at that moment
(probe time over its reference time); :meth:`HostProbe.reference_seconds`
turns a measured interval into the seconds it would have taken at
slowness 1, which is how every end-to-end time is reported.
"""

import statistics
import time
from typing import List, Tuple

#: Median probe time on the reference host (2 vCPUs, CPU busy, as it is
#: between operations).  A 10 ms probe predicts the speed of the work
#: around it better than a 5 ms one: over a minute of 200 ms work items
#: each between two probes, dividing by the probe left a 5.3% spread
#: instead of 11.5%.
REFERENCE_S = 0.010

#: Default minimum measured time between two probes (keeps the cost near
#: 2.5%).
MIN_GAP_S = 0.4


def work(rounds: int = 40_000) -> int:
    """The fixed probe workload: integer and dict churn."""
    table = {}
    acc = 0
    for i in range(rounds):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
        if acc & 7 == 0:
            acc ^= table.get((acc >> 3) & 1023, 0)
    return acc


def probe_seconds() -> float:
    """Time one run of :func:`work`."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class HostProbe:
    """A timeline of slowness samples taken while no work is in flight."""

    def __init__(self) -> None:
        #: (perf_counter time, slowness), in time order.
        self.points: List[Tuple[float, float]] = []
        #: Total time spent probing.
        self.probing_s = 0.0
        self._last = float("-inf")

    def due(self, gap_s: float = MIN_GAP_S) -> bool:
        """Whether the previous probe ended at least ``gap_s`` ago."""
        return time.perf_counter() - self._last >= gap_s

    def maybe(self, gap_s: float = MIN_GAP_S) -> None:
        """Probe, unless the previous probe was under ``gap_s`` ago."""
        if self.due(gap_s):
            self.take()

    def take(self) -> None:
        """Probe now."""
        start = time.perf_counter()
        seconds = probe_seconds()
        self._last = start + seconds
        self.probing_s += seconds
        self.points.append((start + seconds / 2, seconds / REFERENCE_S))

    def slowness(self) -> float:
        """Median slowness over the whole timeline."""
        return statistics.median(s for _, s in self.points)

    def reference_seconds(self, start: float, end: float) -> float:
        """What ``[start, end]`` would have taken at slowness 1.

        Each probe governs the time from halfway since the previous
        probe to halfway to the next; its slowness is the median of
        itself and its two neighbours, so one disturbed probe does not
        skew the operations around it.
        """
        if not self.points:
            return end - start
        points = sorted(self.points)
        times = [t for t, _ in points]
        values = [s for _, s in points]
        smoothed = [statistics.median(values[max(0, k - 1):k + 2])
                    for k in range(len(values))]
        edges = ([float("-inf")]
                 + [(a + b) / 2 for a, b in zip(times, times[1:])]
                 + [float("inf")])
        total = 0.0
        for low, high, slowness in zip(edges, edges[1:], smoothed):
            overlap = min(high, end) - max(low, start)
            if overlap > 0:
                total += overlap / slowness
        return total
