"""Lockstepped dual-core machine (Section 5, Figure 1b).

Both cores execute every logical thread, cycle-for-cycle.  Because the
two cores are deterministic and identically configured, each gets its
own *private* memory-path timing model (the checker forwards a single
miss request outside the sphere, so both cores observe identical miss
latencies) and its own architectural memory image (so a fault injected
into one core cannot leak into the other through memory).

The checker:

- charges ``checker_latency`` cycles on every L1 miss request — all
  signals leaving the sphere must be compared before being forwarded,
  which puts the checker on the critical path of cache misses (Lock0 is
  an idealised zero-cycle checker, Lock8 a realistic 8-cycle one);
- compares the two cores' drained-store streams per thread and flags
  mismatches as detected faults.

With no fault injector attached, core 1 cannot differ from core 0, so
the machine simulates core 0 and its hierarchy only.  It decides once,
before its first warm-up or cycle (:meth:`Machine._begin`): it mirrors
when ``injector`` is ``None``, and any attached
:class:`~repro.core.faults.FaultInjector`, even an empty one, keeps both
cores simulated.  A mirroring machine reports core 0 as core 1 too
(:attr:`LockstepMachine.reported_cores`), so its statistics, hang
reports and occupancy samples carry ``core1.*`` entries equal to
``core0.*``, and its checker counts one comparison per store core 0
drains; its ``RunResult`` is the one dual simulation produces.
Attaching an injector once the machine mirrors raises.
"""

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.config import MachineConfig
from repro.core.machine import Machine, partition
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import Core
from repro.pipeline.hooks import CoreHooks
from repro.pipeline.thread import HwThread, ThreadRole
from repro.pipeline.uop import Uop


class LockstepChecker(CoreHooks):
    """Central checker comparing the two cores' output (store) streams."""

    def __init__(self, machine: "LockstepMachine") -> None:
        self.machine = machine
        # (core_id, tid) -> fifo of (op, addr, value)
        self._streams: Dict[Tuple[int, int], Deque[Tuple[str, int, int]]] = {}
        self.comparisons = 0
        self.mismatches = 0

    def on_store_drained(self, core: Core, thread: HwThread, uop: Uop,
                         now: int) -> None:
        if self.machine.mirroring:
            # Core 1 drains this very store in this very cycle.
            self.comparisons += 1
            return
        key = (core.core_id, thread.tid)
        self._streams.setdefault(key, deque()).append(
            (uop.instr.op.name, uop.mem_addr, uop.store_value))
        self._compare(thread.tid, now)

    def _compare(self, tid: int, now: int) -> None:
        stream0 = self._streams.get((0, tid))
        stream1 = self._streams.get((1, tid))
        while stream0 and stream1:
            a = stream0.popleft()
            b = stream1.popleft()
            self.comparisons += 1
            if a != b:
                self.mismatches += 1
                self.machine.report_fault(
                    now, "lockstep-output-mismatch", tid,
                    detail=f"core0 {a} vs core1 {b}")


class LockstepMachine(Machine):
    kind = "lockstep"

    def __init__(self, config: MachineConfig, programs: List[Program],
                 checker_latency: int = None) -> None:
        super().__init__(config)
        if checker_latency is None:
            checker_latency = config.checker_latency
        self.checker_latency = checker_latency
        #: Whether core 1 mirrors core 0; ``None`` until :meth:`_begin`.
        self.mirroring: Optional[bool] = None
        self.checker = LockstepChecker(self)
        self.memories: List[Dict[int, int]] = [{}, {}]

        hw_count = len(programs)
        lq = partition(config.core.load_queue_entries, hw_count)
        sq = partition(config.core.store_queue_entries, hw_count)

        for core_id in range(2):
            hier_config = type(config.hierarchy)(**vars(config.hierarchy))
            hier_config.checker_latency = checker_latency
            hierarchy = MemoryHierarchy(hier_config, num_cores=1)
            self.hierarchies.append(hierarchy)
            core = Core(core_id, config.core, hierarchy,
                        self.memories[core_id], hooks=self.checker,
                        trailing_priority=config.trailing_priority)
            # Stores, like all outputs, are compared before leaving the
            # sphere of replication.
            core.store_release_delay = checker_latency
            # Both cores report themselves as core 0 to their private
            # hierarchy but keep distinct ids for the checker.
            self.cores.append(core)
            for index, program in enumerate(programs):
                thread = core.add_thread(program, ThreadRole.SINGLE,
                                         asid=index, lq_capacity=lq,
                                         sq_capacity=sq)
                if core_id == 0:
                    self._register_logical_thread(program.name, thread)

        # memory property kept for interface parity; core 0's image.
        self.memory = self.memories[0]

    def _begin(self) -> None:
        if self.mirroring is None:
            self.mirroring = self.injector is None
            if self.mirroring:
                del self.cores[1:], self.hierarchies[1:]

    def attach_injector(self, injector) -> None:
        if self.mirroring:
            raise RuntimeError(
                "this lockstep machine already simulates core 0 only; "
                "attach the fault injector before its first warm-up or "
                "cycle")
        super().attach_injector(injector)

    @property
    def reported_cores(self) -> List[Tuple[int, Core]]:
        if self.mirroring:
            core = self.cores[0]
            return [(0, core), (1, core)]
        return super().reported_cores

    def machine_stats(self):
        stats = super().machine_stats()
        stats["checker.comparisons"] = self.checker.comparisons
        stats["checker.mismatches"] = self.checker.mismatches
        stats["checker.latency"] = self.checker_latency
        return stats
