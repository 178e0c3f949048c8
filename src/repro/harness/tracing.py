"""Run instrumentation: per-cycle occupancy sampling and pipe traces.

Two tools a simulator release needs:

- :class:`OccupancySampler` — samples structure occupancies (instruction
  queue, ROB, store queues, LVQ/LPQ, redundant-pair slack) every N
  cycles while a machine runs, producing the time series behind the
  paper's store-queue-pressure and slack analyses;
- :func:`format_pipetrace` — renders retired uops' stage timestamps
  (fetch/rename/queue/issue/complete/retire) as a text pipeline diagram
  for debugging and teaching.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.machine import Machine
from repro.pipeline.uop import Uop


@dataclass
class OccupancySample:
    cycle: int
    values: Dict[str, int]


@dataclass
class Histogram:
    """Fixed-bucket histogram over non-negative integers."""

    bucket_width: int = 8
    counts: Dict[int, int] = field(default_factory=dict)
    total: int = 0

    def add(self, value: int) -> None:
        bucket = max(value, 0) // self.bucket_width
        self.counts[bucket] = self.counts.get(bucket, 0) + 1
        self.total += 1

    def mean(self) -> float:
        if not self.total:
            return 0.0
        weighted = sum((bucket * self.bucket_width + self.bucket_width / 2)
                       * count for bucket, count in self.counts.items())
        return weighted / self.total

    def percentile(self, fraction: float) -> int:
        """Upper edge of the bucket containing the given percentile."""
        if not self.total:
            return 0
        threshold = fraction * self.total
        running = 0
        for bucket in sorted(self.counts):
            running += self.counts[bucket]
            if running >= threshold:
                return (bucket + 1) * self.bucket_width
        return (max(self.counts) + 1) * self.bucket_width

    def rows(self) -> List[tuple]:
        return [(bucket * self.bucket_width,
                 (bucket + 1) * self.bucket_width,
                 count)
                for bucket, count in sorted(self.counts.items())]


class OccupancySampler:
    """Samples machine structure occupancies while it runs."""

    def __init__(self, machine: Machine, interval: int = 16) -> None:
        self.machine = machine
        self.interval = interval
        self.samples: List[OccupancySample] = []

    def _snapshot(self) -> Dict[str, int]:
        values: Dict[str, int] = {}
        for core_id, core in self.machine.reported_cores:
            prefix = f"core{core_id}."
            values[prefix + "iq"] = (core.qbox.occupancy(0)
                                     + core.qbox.occupancy(1))
            for thread in core.threads:
                tprefix = f"{prefix}t{thread.tid}."
                values[tprefix + "rob"] = len(thread.rob)
                values[tprefix + "sq"] = len(thread.store_queue)
                values[tprefix + "lq"] = len(thread.load_queue)
        controller = getattr(self.machine, "controller", None)
        if controller is not None:
            for pair in controller.pairs:
                pprefix = f"pair.{pair.name}."
                values[pprefix + "lvq"] = len(pair.lvq)
                values[pprefix + "lpq"] = len(pair.lpq)
                values[pprefix + "slack"] = (pair.leading.stats.retired
                                             - pair.trailing.stats.retired)
        return values

    def run(self, max_instructions: int, warmup: int = 0,
            max_cycles: Optional[int] = None):
        """``machine.run``, sampling every ``interval`` cycles."""
        machine = self.machine

        def step() -> None:
            machine.step()
            if machine.now % self.interval == 0:
                self.samples.append(OccupancySample(machine.now,
                                                    self._snapshot()))

        return machine.run(max_instructions, max_cycles, warmup, step=step)

    def series(self, key: str) -> List[int]:
        return [s.values[key] for s in self.samples if key in s.values]

    def histogram(self, key: str, bucket_width: int = 8) -> Histogram:
        histogram = Histogram(bucket_width=bucket_width)
        for value in self.series(key):
            histogram.add(value)
        return histogram

    def mean(self, key: str) -> float:
        values = self.series(key)
        return sum(values) / len(values) if values else 0.0

    def peak(self, key: str) -> int:
        values = self.series(key)
        return max(values) if values else 0


STAGES = [
    ("F", "fetch_cycle"),
    ("Q", "queue_cycle"),
    ("I", "issue_cycle"),
    ("C", "complete_cycle"),
    ("R", "retire_cycle"),
]


def format_pipetrace(uops: Sequence[Uop], width: int = 64) -> str:
    """Render uop stage timestamps as a text pipeline diagram.

    Each row is one uop; columns are cycles relative to the first fetch.
    Stage letters: F fetch, Q queue-insert, I issue, C complete,
    R retire.
    """
    live = [u for u in uops if u.fetch_cycle >= 0]
    if not live:
        return "(no uops)"
    origin = min(u.fetch_cycle for u in live)
    lines = []
    for uop in live:
        row = [" "] * width
        for letter, attr in STAGES:
            cycle = getattr(uop, attr)
            if cycle is None or cycle < 0:
                continue
            offset = cycle - origin
            if 0 <= offset < width:
                row[offset] = letter
        label = f"{uop.seq:>5} t{uop.thread} {str(uop.instr):<24.24}"
        lines.append(f"{label} |{''.join(row)}|")
    return "\n".join(lines)
