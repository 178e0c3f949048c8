"""QBOX: the 128-entry instruction queue, split into two 64-entry halves.

Each half can issue up to four instructions per cycle to its own subset
of functional units (Section 3.3).  A uop's default half follows from
its position in the map chunk; for a trailing thread's uop the RMT
hooks can override this, which is how preferential space redundancy
steers trailing instructions to the half opposite their leading
counterparts (Section 4.5).

Scheduling is wakeup/select.  At insertion a uop counts its sources
whose physical registers are not yet ready and waits on each of them;
the bypass event that writes a register (``Core._writeback``)
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
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional

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

#: Writeback event kinds (``Core.events``), in the order they run for
#: one uop.
BYPASS = 0
COMPLETE = 1


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
        #: Per half, its unit slots and their issue counts by class.
        fus = core.fus
        self._slots = [(fus.units[h::2], fus.issues[h::2]) for h in (0, 1)]

    # -- occupancy -------------------------------------------------------
    def occupancy(self, half: int) -> int:
        return self.occupied[half]

    # -- insertion ---------------------------------------------------------
    def insert_chunk(self, thread: HwThread, uops: List[Uop], now: int) -> None:
        core = self.core
        ready_regs = core.regfile.ready
        # Only a trailing thread's uops may be steered (hooks contract).
        queue_half_for = (core.hooks.queue_half_for if thread.is_trailing
                          else None)
        occupied = self.occupied
        queued = self.queued
        ready_lists = self.ready
        waiters = self.waiters
        capacity = self.half_capacity
        inserted = self._inserted
        occupied_before = occupied[:]
        for position, uop in enumerate(uops):
            if uop.state is _SQUASHED:
                continue
            half = position % 2
            if queue_half_for is not None:
                half = queue_half_for(core, thread, uop, half)
            if occupied[half] >= capacity:
                half = 1 - half
            uop.queue_half = half
            uop.state = _QUEUED
            uop.queue_cycle = now
            inserted += 1
            uop.queue_order = inserted
            occupied[half] += 1
            waiting = 0
            for reg in uop.phys_srcs:
                if not ready_regs[reg]:
                    waiting += 1
                    waiters[reg].append(uop)
            if waiting:
                uop.waiting = waiting  # a uop is inserted once, at 0
            else:
                ready_lists[half].append(uop)  # the newest insertion
        self._inserted = inserted
        # Each inserted uop is queued in its half as well as occupying it.
        queued[0] += occupied[0] - occupied_before[0]
        queued[1] += occupied[1] - occupied_before[1]

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
        """Walk each half's ready list and keep the uops it skips, in
        order, as the next one.  The k-th claim on a unit slot in a
        cycle takes the slot's k-th unit, as ``fus.acquire`` would."""
        core = self.core
        config = self.config
        threads = core.threads
        fus = core.fus
        slots = self._slots
        plan_load = core.mbox.plan_load
        do_issue = self._do_issue
        per_half = config.issue_width // 2
        max_mem = config.max_mem_issue
        max_loads = config.max_load_issue
        max_stores = config.max_store_issue
        occupied = self.occupied
        queued = self.queued
        ready_lists = self.ready
        earliest_queue_cycle = now - self.min_queue_wait
        mem_issued = loads_issued = stores_issued = 0
        for half in (0, 1):
            occupied[half] = queued[half]
            ready = ready_lists[half]
            if not ready:
                continue
            units, unit_issues = slots[half]
            claims = [0] * len(units)
            kept = []
            issued_this_half = 0
            walk = iter(ready)
            for uop in walk:
                if uop.state is not _QUEUED:
                    continue  # squashed since it became ready
                if uop.queue_cycle > earliest_queue_cycle:
                    # Insertion order is queue-cycle order: so is the rest.
                    kept.append(uop)
                    kept += walk
                    break
                info = uop.info
                fu_class = info.fu_class
                if fu_class is _MEM and (
                        mem_issued >= max_mem
                        or info.is_load and loads_issued >= max_loads
                        or info.is_store and stores_issued >= max_stores):
                    kept.append(uop)
                    continue
                thread = threads[uop.thread]
                plan = None
                if info.is_load:
                    plan = plan_load(thread, uop, now)
                    if plan is None:
                        kept.append(uop)
                        continue  # must wait; retries next cycle
                ordinal = fu_class.ordinal
                claim = claims[ordinal]
                slot_units = units[ordinal]
                if claim == len(slot_units):
                    # Structural hazard on this half's units.
                    fus.structural_stalls += 1
                    kept.append(uop)
                    continue
                claims[ordinal] = claim + 1
                unit_issues[ordinal][claim] += 1
                do_issue(thread, uop, slot_units[claim], plan, now)
                issued_this_half += 1
                if fu_class is _MEM:
                    mem_issued += 1
                    loads_issued += info.is_load
                    stores_issued += info.is_store
                if issued_this_half == per_half:
                    kept += walk
                    break
            ready_lists[half] = kept
            if issued_this_half:
                queued[half] -= issued_this_half
                occupied[half] = queued[half]

    # -- execution (value computation happens here; sources are final) ------
    def _do_issue(self, thread: HwThread, uop: Uop, fu: tuple,
                  plan: Optional[tuple], now: int) -> None:
        """Issue ``uop`` on unit ``fu``: compute its values and schedule
        its writeback events.  The caller counts it out of its half's
        ``queued`` entries."""
        core = self.core
        info = uop.info
        uop.state = _ISSUED
        uop.issue_cycle = now
        uop.fu = fu
        thread.iq_occupancy -= 1
        # Dependents wake up after the execute latency alone (results are
        # bypassed around the RBOX register-read stages); the instruction
        # itself completes — resolves branches, becomes retire-eligible —
        # only after the full RBOX+EBOX traversal.
        bypass_latency = info.exec_latency

        if info.is_load:
            # The plan: see MBox.plan_load.  An LVQ entry is consumed (and
            # its address cross-checked) at retirement, so wrong-path
            # trailing loads in predictor fetch mode neither deallocate
            # nor falsely flag entries.
            (uop.raw_addr, uop.mem_addr, uop.result, extra_latency,
             uop.forwarded_from, uop.lvq_addr_check) = plan
            bypass_latency = self.config.mbox_latency + extra_latency
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
            if count == 2:
                uop.result = info.alu(values[sources[0]], values[sources[1]],
                                      0, uop.instr.imm)
            elif count == 1:
                uop.result = info.alu(values[sources[0]], 0, 0,
                                      uop.instr.imm)
            else:
                uop.result = info.alu(
                    values[sources[0]] if count else 0,
                    values[sources[1]] if count else 0,
                    values[sources[2]] if count else 0, uop.instr.imm)

        if core.result_corruptor is not None:
            core.result_corruptor(uop, now)
        # Writeback buckets by due cycle (see Core._writeback); a uop
        # without a destination has nothing to bypass.
        events = core.events
        seq = uop.seq
        due = now + bypass_latency
        if uop.phys_dest is not None:
            events[due].append((seq, BYPASS, uop))
        events[due + self.config.rbox_latency].append((seq, COMPLETE, uop))

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
