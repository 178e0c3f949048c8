"""The CRT machine: chip-level redundant threading (Section 5).

As in SRT, threads are loosely synchronised leading/trailing pairs; as
in lockstepping, the two copies run on physically separate cores.  The
cross-coupling is the key idea: with multiple logical threads, each core
runs the *leading* thread of one program and the *trailing* thread of
another, so the resources a trailing thread frees (no misspeculation, no
data-cache or load-queue use) are spent on the other program's
resource-hungry leading thread.

All forwarded traffic (line predictions, load values, store
comparisons) pays the cross-core latency, but those queues decouple the
threads and are not on the critical path of data accesses — unlike a
lockstep checker.
"""

from typing import List

from repro.core.config import MachineConfig
from repro.core.machine import Machine, partition
from repro.core.rmt import RmtController
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import Core
from repro.pipeline.thread import ThreadRole


class CrtMachine(Machine):
    kind = "crt"

    def __init__(self, config: MachineConfig, programs: List[Program],
                 num_cores: int = 2) -> None:
        super().__init__(config)
        hierarchy = MemoryHierarchy(config.hierarchy, num_cores=num_cores)
        self.hierarchies.append(hierarchy)
        self.controller = RmtController(self, config)
        for core_id in range(num_cores):
            self.cores.append(Core(
                core_id, config.core, hierarchy, self.memory,
                hooks=self.controller,
                trailing_priority=config.trailing_priority))

        # Leading thread of program i on core i%2; its trailing thread on
        # the other core (Figure 5's cross-coupled arrangement).
        placements = []
        for index, program in enumerate(programs):
            lead_core = index % num_cores
            trail_core = (index + 1) % num_cores
            placements.append((index, program, lead_core, trail_core))

        # Per-core hardware-thread counts determine static partitions.
        threads_per_core = [0] * num_cores
        leads_per_core = [0] * num_cores
        for index, program, lead_core, trail_core in placements:
            threads_per_core[lead_core] += 1
            threads_per_core[trail_core] += 1
            leads_per_core[lead_core] += 1

        for index, program, lead_core, trail_core in placements:
            if config.per_thread_store_queues:
                sq_lead = sq_trail = config.core.store_queue_entries
            else:
                sq_lead = partition(config.core.store_queue_entries,
                                    threads_per_core[lead_core])
                sq_trail = partition(config.core.store_queue_entries,
                                     threads_per_core[trail_core])
            lq = partition(config.core.load_queue_entries,
                           max(leads_per_core[lead_core], 1))
            leading = self.cores[lead_core].add_thread(
                program, ThreadRole.LEADING, asid=index,
                lq_capacity=lq, sq_capacity=sq_lead)
            trailing = self.cores[trail_core].add_thread(
                program, ThreadRole.TRAILING, asid=index,
                lq_capacity=0, sq_capacity=sq_trail)
            if config.trailing_fetch_mode == "predictors":
                trailing.fetch_via_lpq = False
            self.controller.create_pair(
                program.name, leading, trailing,
                cross_latency=(config.crt_cross_latency
                               if lead_core != trail_core else 0))
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
            stats[prefix + "comparisons"] = pair.comparator.stats.comparisons
            stats[prefix + "same_unit_fraction"] = (
                pair.tracker.stats.same_unit_fraction)
        return stats
