"""The SRT machine: the base SMT core plus SRT extensions (Section 4).

Each logical thread becomes a leading/trailing hardware-thread pair on
the single core.  Resource partitioning follows the paper:

- Load queue: trailing loads bypass it, so each *leading* thread gets
  the full per-logical-thread share (64 entries for one program, 32
  each for two).
- Store queue: statically partitioned among all hardware threads (32/32
  for one program; 16 each for two programs), unless
  ``per_thread_store_queues`` (ptsq) gives every hardware thread its own
  64 entries.
- ``store_comparison=False`` (nosc) removes output comparison: leading
  stores release at retirement, an upper bound on SRT performance.

That is exactly :class:`~repro.core.crt.CrtMachine`'s placement with a
single core: every pair shares core 0, so no forwarded value pays the
cross-core latency and the partitions above fall out of CRT's
per-core thread counts.
"""

from typing import List

from repro.core.config import MachineConfig
from repro.core.crt import CrtMachine
from repro.isa.program import Program


class SrtMachine(CrtMachine):
    """CRT's leading/trailing pair placement, all on one core."""

    kind = "srt"

    def __init__(self, config: MachineConfig, programs: List[Program]) -> None:
        if 2 * len(programs) > config.core.num_thread_contexts:
            raise ValueError(
                f"{len(programs)} logical threads need "
                f"{2 * len(programs)} contexts, have "
                f"{config.core.num_thread_contexts}")
        super().__init__(config, programs, num_cores=1)

    def machine_stats(self):
        stats = super().machine_stats()
        for pair in self.controller.pairs:
            prefix = f"pair.{pair.name}."
            stats[prefix + "lpq_chunk_len"] = pair.lpq.stats.mean_chunk_length
            stats[prefix + "lpq_rollbacks"] = pair.lpq.stats.rollbacks
            stats[prefix + "inputs_replicated"] = (
                pair.sphere.inputs_replicated)
        return stats
