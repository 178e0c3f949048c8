"""One SMT core: the boxes wired together, plus rename, completion,
retirement, and squash.

Cycle phases, youngest-information-first so each phase sees the machine
state its hardware counterpart would.  ``Core.phases`` lists them once,
in this order, each tagged with the profiler stage it is charged to;
``Machine.step`` walks it flattened with the machine-level phases:

1. writeback/complete events (EBOX results, branch resolution) — queue
2. retirement (QBOX completion unit) and store drain (MBOX) — commit
3. issue (QBOX scheduler) — queue
4. instruction-queue insertion (PBOX output pipe) — queue
5. rename/map (PBOX; one chunk per cycle) — queue
6. fetch delivery and fetch (IBOX) — fetch

Rename, writeback and retirement do the register-file bookkeeping
inline (:mod:`repro.pipeline.regfile` holds the reference methods), and
fetch numbers uops from ``last_seq`` inline.
"""

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, DefaultDict, Dict, List, Optional, Tuple

from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import CoreConfig
from repro.pipeline.ebox import FunctionalUnitPools
from repro.pipeline.hooks import CoreHooks, acting
from repro.pipeline.ibox import IBox
from repro.pipeline.mbox import MBox
from repro.pipeline.qbox import BYPASS, QBox
from repro.pipeline.regfile import PhysicalRegisterFile
from repro.pipeline.thread import HwThread, ThreadRole
from repro.pipeline.uop import FetchChunk, Uop, UopState
from repro.predictors import (GshareBranchPredictor, JumpTargetPredictor,
                              LinePredictor, ReturnAddressStack, StoreSets)
from repro.util.delayline import DelayLine

# Cycles between a result completing and the instruction becoming
# retire-eligible ("additional cycles to retire beyond the MBOX").
RETIRE_MARGIN = 2

_RENAMED = UopState.RENAMED
_ISSUED = UopState.ISSUED
_EXECUTED = UopState.EXECUTED
_RETIRED = UopState.RETIRED
_SQUASHED = UopState.SQUASHED

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
        #: The hooks object the per-uop hooks below were bound from
        #: (:meth:`_bind_hooks`); ``hooks`` may be replaced at any time.
        self._bound_hooks: Optional[CoreHooks] = None
        self._on_uop_retired = self._can_retire_load = None
        self._on_load_retired = self._on_store_retired = None
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

        #: Writeback events by due cycle, each ``(seq, kind, uop)``: the
        #: QBOX schedules a ``COMPLETE`` event for every uop it issues,
        #: and a ``BYPASS`` event before it for one with a destination
        #: register (their order: :meth:`_writeback`).
        self.events: DefaultDict[int, List[Tuple[int, int, Uop]]] = (
            defaultdict(list))
        #: When set (per thread id), retiring uops are appended for
        #: architectural cross-checking against the functional executor.
        self.retire_trace: Dict[int, List[Uop]] = {}
        #: When set (per thread id), draining stores are appended as
        #: (op name, address, value) — the stream leaving the sphere.
        self.drain_log: Dict[int, List[Tuple[str, int, int]]] = {}
        #: Sequence number of the newest uop: fetch numbers uops from it.
        self.last_seq = 0
        self._rename_rotation = 0
        self._retire_rotation = 0
        self.stats = CoreStats()
        #: One cycle of this core, in the order of the module docstring.
        self.phases: Tuple[Phase, ...] = (
            ("queue", self._writeback),
            ("commit", self._retire),
            ("commit", self.mbox.drain),
            ("queue", self.qbox.issue),
            ("queue", self._insert),
            ("queue", self._rename),
            ("fetch", self._deliver),
            ("fetch", self.ibox.fetch),
        )

    def _bind_hooks(self) -> None:
        """Bind the per-uop retirement hooks of ``hooks``: one left at
        its :class:`CoreHooks` default is ``None``, and is skipped."""
        hooks = self._bound_hooks = self.hooks
        self._on_uop_retired = acting(hooks, "on_uop_retired")
        self._can_retire_load = acting(hooks, "can_retire_load")
        self._on_load_retired = acting(hooks, "on_load_retired")
        self._on_store_retired = acting(hooks, "on_store_retired")

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
        # what a setdefault per word left.  A trailing thread is such a
        # copy, added after its leading thread into the same memory, so
        # every word of its image is there already.
        if not thread.is_trailing:
            image = program.initial_memory
            offset = thread.addr_offset
            self.memory.update(zip(map(offset.__add__, image), image.values())
                               if offset else image)
        return thread

    # -- phase 1: writeback ----------------------------------------------------
    def _writeback(self, now: int) -> None:
        """Run the events due by ``now`` in (due cycle, seq, kind) order.

        Events issued at a cycle's issue phase with a zero latency (a
        load at ``mbox_latency=0``; a complete at ``rbox_latency=0``)
        fall due in that cycle, after its writeback: they run here
        first, before this cycle's own.  A bucket is sorted only when it
        holds more than one event.
        """
        events = self.events
        bucket = events.pop(now, None)
        late = events.pop(now - 1, None)
        if late is not None:
            late.sort()
            if bucket is not None:
                bucket.sort()
                late += bucket
            bucket = late
        elif bucket is None:
            return
        elif len(bucket) > 1:
            bucket.sort()
        regfile = self.regfile
        values = regfile.values
        ready = regfile.ready
        waiters = self.qbox.waiters
        for _, kind, uop in bucket:
            if uop.state is not _ISSUED:
                continue  # squashed while in flight
            if kind == BYPASS:
                # Result available on the bypass network: write the
                # destination register and wake its dependents.
                dest = uop.phys_dest
                values[dest] = uop.result or 0
                ready[dest] = True
                if waiters[dest]:
                    self.qbox.wake(dest)
            else:
                uop.state = _EXECUTED
                uop.complete_cycle = now
                if uop.info.is_control:
                    self._resolve_control(self.threads[uop.thread], uop, now)

    def _resolve_control(self, thread: HwThread, uop: Uop, now: int) -> None:
        info = uop.info
        mispredicted = uop.actual_target != uop.pred_target
        if not uop.outcome_known:
            # The LPQ carries the retired path, not taken bits (a JMP to
            # its own fall-through reads as not taken there), so only a
            # predicted path is also judged by its taken bit.
            mispredicted = mispredicted or uop.actual_taken != uop.pred_taken
        # Train predictors (LPQ-fed trailing threads train nothing: their
        # stream comes from the line prediction queue, not the predictors).
        if not (thread.is_trailing and thread.fetch_via_lpq):
            if info.is_conditional:
                self.branch_predictor.update_conditional(
                    thread.tid, uop.pc, uop.actual_taken, uop.pred_taken)
            elif info.is_indirect and not info.is_return:
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
        """Retire up to ``retire_width`` uops, thread heads in rotation.

        A head retires once executed and ``RETIRE_MARGIN`` cycles past
        its completion; a load also needs the hooks' consent (leading
        threads), a store its data, and a barrier every older store
        drained.
        """
        threads = self.threads
        n = len(threads)
        if n == 0:
            return
        width = budget = self.config.retire_width
        first = self._retire_rotation = (self._retire_rotation + 1) % n
        hooks = self.hooks
        if hooks is not self._bound_hooks:
            self._bind_hooks()
        can_retire_load = self._can_retire_load
        on_load_retired = self._on_load_retired
        on_store_retired = self._on_store_retired
        on_uop_retired = self._on_uop_retired
        regfile = self.regfile
        values = regfile.values
        ready = regfile.ready
        free = regfile.free
        retire_trace = self.retire_trace
        for index in range(first, first + n):
            thread = threads[index % n]
            rob = thread.rob
            before = budget
            while budget > 0 and rob:
                uop = rob[0]
                if (uop.state is not _EXECUTED
                        or now < uop.complete_cycle + RETIRE_MARGIN):
                    break
                info = uop.info
                if info.is_load:
                    if (can_retire_load is not None and not thread.is_trailing
                            and not can_retire_load(self, thread, uop, now)):
                        thread.stats.retire_stall_cycles += 1
                        break
                elif info.is_store:
                    if now < uop.data_ready_cycle:
                        break
                elif info.is_membar:
                    # A barrier retires only once every *older* store has
                    # drained (the store queue also holds younger ones).
                    store_queue = thread.store_queue
                    if store_queue and store_queue[0].seq < uop.seq:
                        thread.stats.membar_block_cycles += 1
                        hooks.on_membar_blocked(self, thread, now)
                        break
                budget -= 1
                uop.state = _RETIRED
                uop.retire_cycle = now
                rob.popleft()
                prev = uop.prev_phys_dest
                if prev is not None:
                    ready[prev] = True
                    free.append(prev)
                if info.is_load:
                    if thread.is_trailing:
                        # Input-replication cross-check and LVQ deallocation.
                        if (uop.lvq_addr_check is not None
                                and uop.lvq_addr_check != uop.mem_addr):
                            hooks.on_trailing_divergence(
                                self, thread, uop, "lvq-address-mismatch", now)
                        hooks.trailing_load_consume(self, thread, uop, now)
                        thread.stats.lvq_reads += 1
                    else:
                        thread.load_queue.remove(uop)
                        if on_load_retired is not None:
                            on_load_retired(self, thread, uop, now)
                    thread.committed_load_index = uop.load_index + 1
                elif info.is_store:
                    if thread.is_trailing:
                        # Trailing stores exist only to be compared; they
                        # free their store-queue entry at retirement.
                        thread.store_queue.remove(uop)
                    if on_store_retired is not None:
                        on_store_retired(self, thread, uop, now)
                    thread.committed_store_index = uop.store_index + 1
                elif info.is_halt:
                    thread.done = True
                # Committed architectural view (checkpoint/forensics
                # substrate).  Rename gives a uop a destination exactly
                # when it writes rd.
                dest = uop.phys_dest
                if dest is not None:
                    thread.arch_regs[uop.instr.rd] = values[dest]
                if info.is_control:
                    thread.committed_pc = uop.actual_target
                else:
                    thread.committed_pc = (uop.pc + 1) % thread.program_length
                if retire_trace:
                    trace = retire_trace.get(thread.tid)
                    if trace is not None:
                        trace.append(uop)
                if on_uop_retired is not None:
                    on_uop_retired(self, thread, uop, now)
            if budget != before:
                # Counted per thread: no hook reads the counts, and the
                # target is reached in this cycle either way.
                stats = thread.stats
                stats.retired += before - budget
                if (stats.done_cycle is None
                        and thread.target_instructions is not None
                        and stats.retired >= thread.target_instructions):
                    stats.done_cycle = now
        self.stats.retired_total += width - budget

    # -- phase 4: queue insertion ------------------------------------------------
    def _insert(self, now: int) -> None:
        for tid, uops in self.map_pipe.pop_ready(now):
            self.qbox.insert_chunk(self.threads[tid], uops, now)

    # -- phase 5: rename ------------------------------------------------------------
    def _rename(self, now: int) -> None:
        threads = self.threads
        n = len(threads)
        if n == 0:
            return
        first = self._rename_rotation = (self._rename_rotation + 1) % n
        for index in range(first, first + n):
            thread = threads[index % n]
            rmb = thread.rmb
            if not rmb:
                continue
            chunk = rmb[0]
            if not self._can_map(thread, chunk):
                continue
            rmb.popleft()
            self._map_chunk(thread, chunk, now)
            return  # PBOX maps one chunk per cycle

    def _can_map(self, thread: HwThread, chunk: FetchChunk) -> bool:
        uops = chunk.uops
        count = len(uops)
        free_regs = len(self.regfile.free)
        lq_free = thread.lq_capacity - len(thread.load_queue)
        sq_free = thread.sq_capacity - len(thread.store_queue)
        # A chunk needs at most one register, load and store entry per
        # uop: its writes, loads and stores are counted only when some
        # partition has fewer free entries than that.
        if (free_regs < count or sq_free < count
                or lq_free < count and not thread.is_trailing):
            writes = loads = stores = 0
            for uop in uops:
                info = uop.info
                writes += uop.instr.writes_reg
                loads += info.is_load
                stores += info.is_store
            if free_regs < writes:
                self.stats.rename_stalls += 1
                return False
            if not thread.is_trailing and lq_free < loads:
                thread.stats.map_stall_lq_full += 1
                return False
            if sq_free < stores:
                thread.stats.map_stall_sq_full += 1
                return False
        if not self._iq_space_for(thread, count):
            thread.stats.map_stall_iq_full += 1
            return False
        return True

    def _iq_space_for(self, thread: HwThread, count: int) -> bool:
        """Global occupancy check honouring the one-reserved-chunk-per-
        thread deadlock rule (Section 4.3): every other live thread keeps
        its reserved entries."""
        reserved = self.config.iq_reserved_per_thread
        need = count - self.config.iq_entries
        for other in self.threads:
            occupancy = other.iq_occupancy
            need += occupancy
            if (occupancy < reserved and other is not thread
                    and not other.done):
                need += reserved - occupancy
        return need <= 0

    def _map_chunk(self, thread: HwThread, chunk: FetchChunk, now: int) -> None:
        uops = chunk.uops
        squashed = False
        rename_map = thread.rename.map
        regfile = self.regfile
        free = regfile.free
        ready = regfile.ready
        rob = thread.rob
        for uop in uops:
            if uop.state is _SQUASHED:
                squashed = True
                continue
            instr = uop.instr
            info = uop.info
            sources = instr.source_regs
            if sources:
                # A tuple of ints, which the collector stops tracking;
                # indexed out for the common counts, where a generator
                # costs several times as much.
                count = len(sources)
                if count == 2:
                    uop.phys_srcs = (rename_map[sources[0]],
                                     rename_map[sources[1]])
                elif count == 1:
                    uop.phys_srcs = (rename_map[sources[0]],)
                else:
                    uop.phys_srcs = tuple(rename_map[reg] for reg in sources)
            if instr.writes_reg:
                # RenameMap.rename_dest: writes_reg excludes r0, and
                # _can_map made sure of a free register for every write.
                reg = free.popleft()
                ready[reg] = False
                rd = instr.rd
                uop.prev_phys_dest = rename_map[rd]
                rename_map[rd] = reg
                uop.phys_dest = reg
            uop.state = _RENAMED
            rob.append(uop)
            if info.is_load:
                uop.load_index = thread.next_load_index
                thread.next_load_index += 1
                if not thread.is_trailing:
                    thread.load_queue.append(uop)
                    # Store-sets dependence is read at dispatch, so it can
                    # only name an older store.
                    uop.memdep_seq = self.store_sets.load_dependence(
                        thread.tid, uop.pc)
            elif info.is_store:
                uop.store_index = thread.next_store_index
                thread.next_store_index += 1
                thread.store_queue.append(uop)
                self.store_sets.store_dispatched(thread.tid, uop.pc, uop.seq)
        if squashed:
            # The chunk's uops travel on without a copy unless some
            # were squashed before rename.
            uops = [uop for uop in uops if uop.state is not _SQUASHED]
        if uops:
            thread.iq_occupancy += len(uops)
            self.map_pipe.push((thread.tid, uops), now)

    # -- phase 6: fetch delivery -----------------------------------------------------
    def _deliver(self, now: int) -> None:
        for tid, chunk in self.fetch_pipe.pop_ready(now):
            thread = self.threads[tid]
            thread.rmb_inflight -= 1
            thread.rmb.append(chunk)

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
            # The memory queues are in program order and the squash
            # unwinds youngest first, so a squashed entry is normally
            # the last one.
            info = uop.info
            queue = None
            if info.is_load:
                thread.next_load_index = uop.load_index
                if not thread.is_trailing:
                    queue = thread.load_queue
            elif info.is_store:
                thread.next_store_index = uop.store_index
                queue = thread.store_queue
            if queue:
                if queue[-1] is uop:
                    queue.pop()
                elif uop in queue:
                    queue.remove(uop)
            if uop.state is UopState.QUEUED:
                self.qbox.squash(uop)
                thread.iq_occupancy -= 1
            elif uop.state is _RENAMED:
                thread.iq_occupancy -= 1
            if uop.ras_snapshot is not None:
                ras_restore = uop.ras_snapshot
            uop.state = _SQUASHED
            thread.stats.squashed_uops += 1
        if ras_restore is not None:
            self.ras[thread.tid]._stack = list(ras_restore)

        # Everything still in the front end is younger: drop it all.
        removed = self.fetch_pipe.remove_if(lambda item: item[0] == thread.tid)
        thread.rmb_inflight -= removed
        for chunk in thread.rmb:
            for uop in chunk.uops:
                uop.state = _SQUASHED
        thread.rmb.clear()

        thread.fetch_pc = redirect_pc
        thread.fetch_stalled_until = max(
            thread.fetch_stalled_until, now + self.config.redirect_penalty)
        thread.fetch_halted = False
        self.hooks.on_squash(self, thread, from_seq, now)
