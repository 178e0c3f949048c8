"""One SMT core: the boxes wired together, plus rename, completion,
retirement, and squash.

Cycle phases, youngest-information-first so each phase sees the machine
state its hardware counterpart would.  ``Core.phases`` lists them once,
in this order, each tagged with the profiler stage it is charged to;
``tick`` walks that table, and ``Machine.step`` walks it flattened with
the machine-level phases:

1. writeback/complete events (EBOX results, branch resolution) — queue
2. retirement (QBOX completion unit) and store drain (MBOX) — commit
3. issue (QBOX scheduler) — queue
4. instruction-queue insertion (PBOX output pipe) — queue
5. rename/map (PBOX; one chunk per cycle) — queue
6. fetch delivery and fetch (IBOX) — fetch
"""

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import CoreConfig
from repro.pipeline.ebox import FunctionalUnitPools
from repro.pipeline.hooks import CoreHooks
from repro.pipeline.ibox import IBox
from repro.pipeline.mbox import MBox
from repro.pipeline.qbox import QBox
from repro.pipeline.regfile import PhysicalRegisterFile
from repro.pipeline.thread import HwThread, ThreadRole
from repro.pipeline.uop import FetchChunk, Uop, UopState
from repro.predictors import (GshareBranchPredictor, JumpTargetPredictor,
                              LinePredictor, ReturnAddressStack, StoreSets)
from repro.util.delayline import DelayLine

# Cycles between a result completing and the instruction becoming
# retire-eligible ("additional cycles to retire beyond the MBOX").
RETIRE_MARGIN = 2

#: One entry of a cycle's phase table: (profiler stage, phase(now)).
Phase = Tuple[str, Callable[[int], None]]


@dataclass
class CoreStats:
    retired_total: int = 0
    squashes: int = 0
    rename_stalls: int = 0


class Core:
    def __init__(self, core_id: int, config: CoreConfig,
                 hierarchy: MemoryHierarchy, memory: Dict[int, int],
                 hooks: Optional[CoreHooks] = None,
                 trailing_priority: bool = True) -> None:
        self.core_id = core_id
        self.config = config
        self.hierarchy = hierarchy
        self.memory = memory
        self.hooks = hooks or CoreHooks()
        self.trailing_priority = trailing_priority

        self.regfile = PhysicalRegisterFile(config.physical_registers)
        self.threads: List[HwThread] = []

        self.line_predictor = LinePredictor(config.line_predictor_entries,
                                            config.chunk_size)
        self.branch_predictor = GshareBranchPredictor(
            config.branch_counter_bits, config.branch_history_bits,
            config.num_thread_contexts)
        self.jump_predictor = JumpTargetPredictor(config.jump_predictor_entries)
        self.ras = [ReturnAddressStack(config.ras_depth)
                    for _ in range(config.num_thread_contexts)]
        self.store_sets = StoreSets(config.store_sets_entries,
                                    config.num_thread_contexts)
        self.fus = FunctionalUnitPools()

        self.ibox = IBox(self)
        self.qbox = QBox(self)
        self.mbox = MBox(self)

        #: Optional fault-injection hook: called as f(uop, now) right after
        #: a uop's result/address/store value is computed at issue; may
        #: mutate the uop in place (see repro.core.faults).
        self.result_corruptor = None
        #: Optional undo-log hook: called as f(key, old_value_or_None)
        #: just before a draining store overwrites the architectural
        #: memory image (see repro.recovery.checkpoint).
        self.memory_journal = None
        #: Extra cycles a retired store waits before draining (lockstep
        #: machines set this to the checker latency: every output signal
        #: is compared before being forwarded outside the sphere).
        self.store_release_delay = 0

        # (thread id, FetchChunk) in the IBOX pipe.
        self.fetch_pipe: DelayLine[Tuple[int, FetchChunk]] = DelayLine(
            config.ibox_latency, "fetch-pipe")
        # (thread id, uops) in the PBOX pipe headed for the queue.
        self.map_pipe: DelayLine[Tuple[int, List[Uop]]] = DelayLine(
            config.pbox_latency, "map-pipe")

        self._events: List[Tuple[int, int, str, Uop]] = []
        #: When set (per thread id), retiring uops are appended for
        #: architectural cross-checking against the functional executor.
        self.retire_trace: Dict[int, List[Uop]] = {}
        #: When set (per thread id), draining stores are appended as
        #: (op name, address, value) — the stream leaving the sphere.
        self.drain_log: Dict[int, List[Tuple[str, int, int]]] = {}
        self._seq = 0
        self._rename_rotation = 0
        self._retire_rotation = 0
        self.stats = CoreStats()
        #: One cycle of this core, in the order of the module docstring.
        self.phases: Tuple[Phase, ...] = (
            ("queue", self._process_events),
            ("commit", self._retire),
            ("commit", self.mbox.drain_stores),
            ("queue", self.qbox.issue),
            ("queue", self._insert_queue),
            ("queue", self._rename),
            ("fetch", self._deliver_fetch),
            ("fetch", self.ibox.fetch),
        )

    # -- setup -----------------------------------------------------------
    def add_thread(self, program: Program, role: ThreadRole = ThreadRole.SINGLE,
                   asid: int = 0, lq_capacity: int = 64,
                   sq_capacity: int = 64) -> HwThread:
        if len(self.threads) >= self.config.num_thread_contexts:
            raise ValueError("no free hardware thread context")
        thread = HwThread(tid=len(self.threads), program=program,
                          regfile=self.regfile, role=role, asid=asid,
                          rmb_chunks=self.config.rate_matching_buffer_chunks,
                          lq_capacity=lq_capacity, sq_capacity=sq_capacity)
        thread.core = self
        self.threads.append(thread)
        # Seed the architectural memory image in one update.  Memory holds
        # only earlier threads' images yet, and two threads share an
        # address space only as the redundant copies of one program, so
        # a word already there keeps its place and gets its own value:
        # what a setdefault per word left.
        image = program.initial_memory
        offset = thread.addr_offset
        self.memory.update(zip(map(offset.__add__, image), image.values())
                           if offset else image)
        return thread

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def schedule(self, cycle: int, kind: str, uop: Uop) -> None:
        heapq.heappush(self._events, (cycle, uop.seq, kind, uop))

    # -- main loop ----------------------------------------------------------
    def tick(self, now: int) -> None:
        for _, phase in self.phases:
            phase(now)

    # -- phase 1: writeback ----------------------------------------------------
    def _process_events(self, now: int) -> None:
        while self._events and self._events[0][0] <= now:
            _, _, kind, uop = heapq.heappop(self._events)
            if kind == "bypass":
                self._bypass(uop, now)
            elif kind == "complete":
                self._complete(uop, now)

    def _bypass(self, uop: Uop, now: int) -> None:
        """Result available on the bypass network: wake dependents."""
        if uop.state is not UopState.ISSUED:
            return  # squashed while in flight
        if uop.phys_dest is not None:
            self.regfile.write(uop.phys_dest, uop.result or 0)
            self.qbox.wake(uop.phys_dest)

    def _complete(self, uop: Uop, now: int) -> None:
        if uop.state is not UopState.ISSUED:
            return  # squashed while in flight
        uop.state = UopState.EXECUTED
        uop.complete_cycle = now
        thread = self.threads[uop.thread]
        if uop.instr.is_control:
            self._resolve_control(thread, uop, now)

    def _resolve_control(self, thread: HwThread, uop: Uop, now: int) -> None:
        instr = uop.instr
        mispredicted = uop.actual_target != uop.pred_target
        if not uop.outcome_known:
            # The LPQ carries the retired path, not taken bits (a JMP to
            # its own fall-through reads as not taken there), so only a
            # predicted path is also judged by its taken bit.
            mispredicted = mispredicted or uop.actual_taken != uop.pred_taken
        # Train predictors (LPQ-fed trailing threads train nothing: their
        # stream comes from the line prediction queue, not the predictors).
        if not (thread.is_trailing and thread.fetch_via_lpq):
            if instr.is_conditional:
                self.branch_predictor.update_conditional(
                    thread.tid, uop.pc, uop.actual_taken, uop.pred_taken)
            elif instr.is_indirect and not instr.is_return:
                self.jump_predictor.update(uop.pc, uop.actual_target,
                                           uop.pred_target)
        if not mispredicted:
            return
        if uop.outcome_known:
            # The LPQ promised this outcome; disagreement means a fault.
            self.hooks.on_trailing_divergence(
                self, thread, uop, "control-flow-divergence", now)
            return
        thread.stats.branch_mispredicts += 1
        self.squash_from(thread, uop.seq + 1, now,
                         redirect_pc=uop.actual_target,
                         reason="branch misprediction")

    # -- phase 2: retire ----------------------------------------------------------
    def _retire(self, now: int) -> None:
        budget = self.config.retire_width
        n = len(self.threads)
        if n == 0:
            return
        self._retire_rotation = (self._retire_rotation + 1) % n
        order = (self.threads[self._retire_rotation:]
                 + self.threads[:self._retire_rotation])
        for thread in order:
            while budget > 0 and thread.rob:
                uop = thread.rob[0]
                if not self._retire_eligible(thread, uop, now):
                    break
                self._do_retire(thread, uop, now)
                budget -= 1

    def _retire_eligible(self, thread: HwThread, uop: Uop, now: int) -> bool:
        if uop.state is not UopState.EXECUTED:
            return False
        if now < uop.complete_cycle + RETIRE_MARGIN:
            return False
        instr = uop.instr
        if instr.is_membar:
            # A barrier retires only once every *older* store has drained
            # (the store queue also holds younger, not-yet-retired stores).
            if thread.store_queue and thread.store_queue[0].seq < uop.seq:
                thread.stats.membar_block_cycles += 1
                self.hooks.on_membar_blocked(self, thread, now)
                return False
        if instr.is_store and now < uop.data_ready_cycle:
            return False
        if instr.is_load and not thread.is_trailing:
            if not self.hooks.can_retire_load(self, thread, uop, now):
                thread.stats.retire_stall_cycles += 1
                return False
        return True

    def _do_retire(self, thread: HwThread, uop: Uop, now: int) -> None:
        uop.state = UopState.RETIRED
        uop.retire_cycle = now
        thread.rob.popleft()
        if uop.prev_phys_dest is not None:
            self.regfile.release(uop.prev_phys_dest)
        instr = uop.instr
        if instr.is_load:
            if thread.is_trailing:
                # Input-replication cross-check and LVQ deallocation.
                if (uop.lvq_addr_check is not None
                        and uop.lvq_addr_check != uop.mem_addr):
                    self.hooks.on_trailing_divergence(
                        self, thread, uop, "lvq-address-mismatch", now)
                self.hooks.trailing_load_consume(self, thread, uop, now)
                thread.stats.lvq_reads += 1
            else:
                thread.load_queue.remove(uop)
                self.hooks.on_load_retired(self, thread, uop, now)
        elif instr.is_store:
            if thread.is_trailing:
                # Trailing stores exist only to be compared; they free
                # their store-queue entry at retirement.
                thread.store_queue.remove(uop)
            self.hooks.on_store_retired(self, thread, uop, now)
        elif instr.is_halt:
            thread.done = True
        # Committed architectural view (checkpoint/forensics substrate).
        if instr.writes_reg and uop.phys_dest is not None:
            thread.arch_regs[instr.rd] = self.regfile.read(uop.phys_dest)
        if instr.is_load:
            thread.committed_load_index = uop.load_index + 1
        elif instr.is_store:
            thread.committed_store_index = uop.store_index + 1
        if instr.is_control:
            thread.committed_pc = uop.actual_target
        else:
            thread.committed_pc = (uop.pc + 1) % len(thread.program)
        trace = self.retire_trace.get(thread.tid)
        if trace is not None:
            trace.append(uop)
        thread.stats.retired += 1
        self.stats.retired_total += 1
        if (thread.target_instructions is not None
                and thread.stats.retired >= thread.target_instructions
                and thread.stats.done_cycle is None):
            thread.stats.done_cycle = now
        self.hooks.on_uop_retired(self, thread, uop, now)

    # -- phase 4: queue insertion ------------------------------------------------
    def _insert_queue(self, now: int) -> None:
        for tid, uops in self.map_pipe.pop_ready(now):
            self.qbox.insert_chunk(self.threads[tid], uops, now)

    # -- phase 5: rename ------------------------------------------------------------
    def _rename(self, now: int) -> None:
        n = len(self.threads)
        if n == 0:
            return
        self._rename_rotation = (self._rename_rotation + 1) % n
        order = (self.threads[self._rename_rotation:]
                 + self.threads[:self._rename_rotation])
        for thread in order:
            chunk = thread.rmb.peek()
            if chunk is None:
                continue
            if not self._can_map(thread, chunk):
                continue
            thread.rmb.pop()
            self._map_chunk(thread, chunk, now)
            return  # PBOX maps one chunk per cycle

    def _can_map(self, thread: HwThread, chunk: FetchChunk) -> bool:
        uops = chunk.uops
        writes = sum(1 for u in uops if u.instr.writes_reg)
        loads = sum(1 for u in uops if u.instr.is_load)
        stores = sum(1 for u in uops if u.instr.is_store)
        if self.regfile.free_count < writes:
            self.stats.rename_stalls += 1
            return False
        if not thread.is_trailing and thread.lq_free() < loads:
            thread.stats.map_stall_lq_full += 1
            return False
        if thread.sq_free() < stores:
            thread.stats.map_stall_sq_full += 1
            return False
        if not self._iq_space_for(thread, len(uops)):
            thread.stats.map_stall_iq_full += 1
            return False
        return True

    def _iq_space_for(self, thread: HwThread, count: int) -> bool:
        """Global occupancy check honouring the one-reserved-chunk-per-
        thread deadlock rule (Section 4.3)."""
        total = sum(t.iq_occupancy for t in self.threads)
        reserve = sum(
            max(0, self.config.iq_reserved_per_thread - t.iq_occupancy)
            for t in self.threads if t is not thread and not t.done)
        return total + count + reserve <= self.config.iq_entries

    def _map_chunk(self, thread: HwThread, chunk: FetchChunk, now: int) -> None:
        live: List[Uop] = []
        for uop in chunk.uops:
            if uop.state is UopState.SQUASHED:
                continue
            instr = uop.instr
            uop.phys_srcs = [thread.rename.lookup(reg)
                             for reg in instr.source_regs]
            if instr.writes_reg:
                uop.phys_dest, uop.prev_phys_dest = (
                    thread.rename.rename_dest(instr.rd))
            uop.state = UopState.RENAMED
            thread.rob.append(uop)
            thread.iq_occupancy += 1
            if instr.is_load:
                uop.load_index = thread.next_load_index
                thread.next_load_index += 1
                if not thread.is_trailing:
                    thread.load_queue.append(uop)
                    # Store-sets dependence is read at dispatch, so it can
                    # only name an older store.
                    uop.memdep_seq = self.store_sets.load_dependence(
                        thread.tid, uop.pc)
            elif instr.is_store:
                uop.store_index = thread.next_store_index
                thread.next_store_index += 1
                thread.store_queue.append(uop)
                self.store_sets.store_dispatched(thread.tid, uop.pc, uop.seq)
            live.append(uop)
        if live:
            self.map_pipe.push((thread.tid, live), now)

    # -- phase 6: fetch delivery -----------------------------------------------------
    def _deliver_fetch(self, now: int) -> None:
        for tid, chunk in self.fetch_pipe.pop_ready(now):
            thread = self.threads[tid]
            thread.rmb_inflight -= 1
            thread.rmb.push(chunk)

    # -- squash ------------------------------------------------------------------------
    def squash_from(self, thread: HwThread, from_seq: int, now: int,
                    redirect_pc: int, reason: str) -> None:
        """Squash every uop of ``thread`` with seq >= ``from_seq`` and
        redirect fetch to ``redirect_pc``."""
        self.stats.squashes += 1
        ras_restore = None
        while thread.rob and thread.rob[-1].seq >= from_seq:
            uop = thread.rob.pop()
            if uop.phys_dest is not None:
                thread.rename.undo_rename(uop.instr.rd, uop.phys_dest,
                                          uop.prev_phys_dest)
            instr = uop.instr
            if instr.is_load:
                thread.next_load_index = uop.load_index
                if not thread.is_trailing and uop in thread.load_queue:
                    thread.load_queue.remove(uop)
            elif instr.is_store:
                thread.next_store_index = uop.store_index
                if uop in thread.store_queue:
                    thread.store_queue.remove(uop)
            if uop.state is UopState.QUEUED:
                self.qbox.squash(uop)
                thread.iq_occupancy -= 1
            elif uop.state is UopState.RENAMED:
                thread.iq_occupancy -= 1
            if uop.ras_snapshot is not None:
                ras_restore = uop.ras_snapshot
            uop.state = UopState.SQUASHED
            thread.stats.squashed_uops += 1
        if ras_restore is not None:
            self.ras[thread.tid]._stack = list(ras_restore)

        # Everything still in the front end is younger: drop it all.
        removed = self.fetch_pipe.remove_if(lambda item: item[0] == thread.tid)
        thread.rmb_inflight -= removed
        for chunk in thread.rmb:
            for uop in chunk.uops:
                uop.state = UopState.SQUASHED
        thread.rmb.clear()

        thread.fetch_pc = redirect_pc
        thread.fetch_stalled_until = max(
            thread.fetch_stalled_until, now + self.config.redirect_penalty)
        thread.fetch_halted = False
        self.hooks.on_squash(self, thread, from_seq, now)
