"""QBOX: the 128-entry instruction queue, split into two 64-entry halves.

Each half can issue up to four instructions per cycle to its own subset
of functional units (Section 3.3).  A uop's default half follows from
its position in the map chunk; the RMT hooks can override this, which is
how preferential space redundancy steers trailing instructions to the
half opposite their leading counterparts (Section 4.5).

Scheduling is wakeup/select.  At insertion a uop counts its sources
whose physical registers are not yet ready and waits on each of them;
the bypass event that writes a register (``Core._process_events``)
wakes its waiters, and a uop whose count reaches zero joins its half's
ready list.  Select walks that list oldest insertion first, so it
issues exactly the uops an in-order scan of the whole half would.  A
squashed uop is never unregistered: waiters are checked for ``QUEUED``
when woken.

A half's occupancy follows the hardware's entry valid bits: issued uops
leave at the end of their half's select, squashed ones at the half's
next select.

Memory issue is limited to four operations per cycle, at most three
loads and two stores (Section 3.4).
"""

from bisect import insort
from heapq import heappush
from operator import attrgetter
from typing import TYPE_CHECKING, List

from repro.isa.instructions import FuClass
from repro.pipeline.thread import HwThread
from repro.pipeline.uop import Uop, UopState

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core

_QUEUED = UopState.QUEUED
_ISSUED = UopState.ISSUED
_SQUASHED = UopState.SQUASHED
_MEM = FuClass.MEM
_insertion_order = attrgetter("queue_order")


class QBox:
    def __init__(self, core: "Core") -> None:
        self.core = core
        self.config = core.config
        self.half_capacity = self.config.iq_entries // 2
        # Half of the QBOX traversal (Figure 2's Q = 4) is the minimum
        # insertion-to-issue wait; the other half overlaps with wakeup
        # and select.
        self.min_queue_wait = self.config.qbox_latency // 2
        #: Entries each half holds (see the module docstring).
        self.occupied = [0, 0]
        #: ``QUEUED`` uops in each half.
        self.queued = [0, 0]
        #: Per half, the queued uops whose sources are all ready, in
        #: insertion order.
        self.ready: List[List[Uop]] = [[], []]
        #: Per physical register, the uops inserted while it was unready.
        self.waiters: List[List[Uop]] = [
            [] for _ in range(self.config.physical_registers)]
        self._inserted = 0

    # -- occupancy -------------------------------------------------------
    def occupancy(self, half: int) -> int:
        return self.occupied[half]

    # -- insertion ---------------------------------------------------------
    def insert_chunk(self, thread: HwThread, uops: List[Uop], now: int) -> None:
        core = self.core
        ready_regs = core.regfile.ready
        queue_half_for = core.hooks.queue_half_for
        for position, uop in enumerate(uops):
            if uop.state is _SQUASHED:
                continue
            half = queue_half_for(core, thread, uop, position % 2)
            if self.occupied[half] >= self.half_capacity:
                half = 1 - half
            uop.queue_half = half
            uop.state = _QUEUED
            uop.queue_cycle = now
            self._inserted += 1
            uop.queue_order = self._inserted
            self.occupied[half] += 1
            self.queued[half] += 1
            waiting = 0
            for reg in uop.phys_srcs:
                if not ready_regs[reg]:
                    waiting += 1
                    self.waiters[reg].append(uop)
            uop.waiting = waiting
            if not waiting:
                self.ready[half].append(uop)  # the newest insertion

    def wake(self, reg: int) -> None:
        """Physical register ``reg`` was written: wake its waiters."""
        waiters = self.waiters[reg]
        if not waiters:
            return
        self.waiters[reg] = []
        for uop in waiters:
            if uop.state is _QUEUED:
                uop.waiting -= 1
                if not uop.waiting:
                    insort(self.ready[uop.queue_half], uop,
                           key=_insertion_order)

    def squash(self, uop: Uop) -> None:
        """A ``QUEUED`` uop was squashed; its entry leaves at the next
        select of its half."""
        self.queued[uop.queue_half] -= 1

    # -- select ---------------------------------------------------------------
    def issue(self, now: int) -> None:
        core = self.core
        config = self.config
        threads = core.threads
        acquire = core.fus.acquire
        per_half = config.issue_width // 2
        earliest_queue_cycle = now - self.min_queue_wait
        mem_issued = loads_issued = stores_issued = 0
        for half in (0, 1):
            self.occupied[half] = self.queued[half]
            ready = self.ready[half]
            if not ready:
                continue
            issued_this_half = 0
            for uop in ready:
                if issued_this_half >= per_half:
                    break
                if uop.state is not _QUEUED:
                    continue  # squashed since it became ready
                if uop.queue_cycle > earliest_queue_cycle:
                    continue
                info = uop.info
                is_mem = info.fu_class is _MEM
                if is_mem:
                    if mem_issued >= config.max_mem_issue:
                        continue
                    if info.is_load and loads_issued >= config.max_load_issue:
                        continue
                    if info.is_store and stores_issued >= config.max_store_issue:
                        continue
                thread = threads[uop.thread]
                plan = None
                if info.is_load:
                    plan = core.mbox.plan_load(thread, uop, now)
                    if plan is None:
                        continue  # must wait; retries next cycle
                fu = acquire(info.fu_class, half, now)
                if fu is None:
                    continue  # structural hazard on this half's units
                self._do_issue(thread, uop, fu, plan, now)
                issued_this_half += 1
                if is_mem:
                    mem_issued += 1
                    loads_issued += info.is_load
                    stores_issued += info.is_store
            self.ready[half] = [u for u in ready if u.state is _QUEUED]
            self.occupied[half] = self.queued[half]

    # -- execution (value computation happens here; sources are final) ------
    def _do_issue(self, thread: HwThread, uop: Uop, fu: tuple, plan, now: int) -> None:
        core = self.core
        info = uop.info
        uop.state = _ISSUED
        uop.issue_cycle = now
        uop.fu = fu
        thread.iq_occupancy -= 1
        self.queued[uop.queue_half] -= 1
        # Dependents wake up after the execute latency alone (results are
        # bypassed around the RBOX register-read stages); the instruction
        # itself completes — resolves branches, becomes retire-eligible —
        # only after the full RBOX+EBOX traversal.
        bypass_latency = info.exec_latency

        if info.is_load:
            uop.raw_addr = plan.raw_addr
            uop.mem_addr = plan.addr
            uop.result = plan.value
            uop.forwarded_from = plan.forwarded_from
            if plan.lvq_entry:
                # The entry is consumed (and its address cross-checked) at
                # retirement, so wrong-path trailing loads in predictor
                # fetch mode neither deallocate nor falsely flag entries.
                uop.lvq_addr_check = plan.lvq_addr
            bypass_latency = self.config.mbox_latency + plan.extra_latency
        elif info.is_store:
            core.mbox.execute_store(thread, uop, now + 1)
            bypass_latency = 1
        elif info.is_control:
            self._resolve_control_values(thread, uop)
        elif uop.instr.writes_reg:
            # Absent sources read 0.
            values = core.regfile.values
            sources = uop.phys_srcs
            count = len(sources)
            uop.result = info.alu(
                values[sources[0]] if count else 0,
                values[sources[1]] if count > 1 else 0,
                values[sources[2]] if count > 2 else 0,
                uop.instr.imm)

        if core.result_corruptor is not None:
            core.result_corruptor(uop, now)
        events = core.events
        seq = uop.seq
        bypass_cycle = now + bypass_latency
        heappush(events, (bypass_cycle, seq, "bypass", uop))
        heappush(events, (bypass_cycle + self.config.rbox_latency, seq,
                          "complete", uop))

    def _resolve_control_values(self, thread: HwThread, uop: Uop) -> None:
        """Compute a control uop's actual outcome from register values."""
        instr = uop.instr
        info = uop.info
        wrap = thread.program_length
        value = (self.core.regfile.values[uop.phys_srcs[0]]
                 if uop.phys_srcs else 0)
        taken = info.taken(value)
        if info.is_call:
            target = instr.target
            uop.result = (uop.pc + 1) % wrap  # return address into rd
        elif info.is_indirect:  # JMP / RET
            target = value % wrap
        elif taken:
            target = instr.target
        else:
            target = (uop.pc + 1) % wrap
        uop.actual_taken = taken
        uop.actual_target = target % wrap
