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
"""

from typing import List

from repro.core.config import MachineConfig
from repro.core.machine import Machine, partition
from repro.core.rmt import RmtController
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import Core
from repro.pipeline.thread import ThreadRole


class SrtMachine(Machine):
    kind = "srt"

    def __init__(self, config: MachineConfig, programs: List[Program]) -> None:
        super().__init__(config)
        if 2 * len(programs) > config.core.num_thread_contexts:
            raise ValueError(
                f"{len(programs)} logical threads need "
                f"{2 * len(programs)} contexts, have "
                f"{config.core.num_thread_contexts}")
        hierarchy = MemoryHierarchy(config.hierarchy, num_cores=1)
        self.hierarchies.append(hierarchy)
        self.controller = RmtController(self, config)
        core = Core(0, config.core, hierarchy, self.memory,
                    hooks=self.controller,
                    trailing_priority=config.trailing_priority)
        self.cores.append(core)

        hw_count = 2 * len(programs)
        if config.per_thread_store_queues:
            sq = config.core.store_queue_entries
        else:
            sq = partition(config.core.store_queue_entries, hw_count)
        # Trailing threads free their load-queue share for the leading
        # thread (Section 4.1).
        lq = partition(config.core.load_queue_entries, len(programs))

        for index, program in enumerate(programs):
            leading = core.add_thread(program, ThreadRole.LEADING,
                                      asid=index, lq_capacity=lq,
                                      sq_capacity=sq)
            trailing = core.add_thread(program, ThreadRole.TRAILING,
                                       asid=index, lq_capacity=0,
                                       sq_capacity=sq)
            if config.trailing_fetch_mode == "predictors":
                trailing.fetch_via_lpq = False
            self.controller.create_pair(program.name, leading, trailing)
            self._register_logical_thread(program.name, leading)

        if config.recovery_enabled:
            from repro.recovery.checkpoint import RecoveryManager

            self.recovery = RecoveryManager(self, self.controller)

    def _verify(self, now: int) -> None:
        self.controller.tick(now)
        super()._verify(now)

    def machine_stats(self):
        stats = super().machine_stats()
        for pair in self.controller.pairs:
            prefix = f"pair.{pair.name}."
            stats[prefix + "lvq_peak"] = pair.lvq.stats.peak_occupancy
            stats[prefix + "lpq_chunk_len"] = pair.lpq.stats.mean_chunk_length
            stats[prefix + "lpq_rollbacks"] = pair.lpq.stats.rollbacks
            stats[prefix + "comparisons"] = pair.comparator.stats.comparisons
            stats[prefix + "same_unit_fraction"] = (
                pair.tracker.stats.same_unit_fraction)
            stats[prefix + "inputs_replicated"] = (
                pair.sphere.inputs_replicated)
        return stats
