"""MBOX: load/store disambiguation, data-cache access, store drain.

Loads probe the store queue and data cache; stores record themselves in
the store queue at dispatch and check the load queue for order
violations when their address resolves (Section 3.4).  Retired stores
drain in program order through the coalescing merge buffer — but only
once verified when the thread is a leading RMT thread, which is the
store-queue-pressure effect at the heart of the paper's Section 7.1
results.

Trailing-thread loads bypass the load queue, store queue, and data
cache entirely and read the load value queue instead (Section 4.1).
"""

from typing import TYPE_CHECKING, Optional

from repro.isa.executor import WORD_MASK, merge_partial_store
from repro.pipeline.thread import HwThread
from repro.pipeline.uop import Uop, UopState
from repro.util.bits import MASK64

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core

_RETIRED = UopState.RETIRED


class MBox:
    def __init__(self, core: "Core") -> None:
        self.core = core
        self.config = core.config

    # -- load planning ---------------------------------------------------------
    def plan_load(self, thread: HwThread, uop: Uop,
                  now: int) -> Optional[tuple]:
        """Decide whether the load can issue this cycle and how.

        Returns None when the load must wait (forwarding data not ready,
        partial-store overlap, store-set dependence, or a missing LVQ
        entry for a trailing load).  Otherwise returns the plan ``(raw
        address, word address, value, latency beyond the MBOX stage,
        seq of the store it forwards from or None, address the LVQ
        entry recorded or None)``, which ``QBox._do_issue`` stores.
        """
        core = self.core
        # The effective address and its word (align_word), inline.
        raw = (core.regfile.values[uop.phys_srcs[0]] + uop.instr.imm) & MASK64
        addr = raw & WORD_MASK
        if thread.is_trailing:
            entry = core.hooks.trailing_load_probe(core, thread, uop, now)
            if entry is None:
                return None  # LVQ entry not yet arrived (CRT cross-core delay)
            return raw, addr, entry[1], 0, None, entry[0]

        if (uop.memdep_seq is not None
                and self._store_pending(thread, uop.memdep_seq)):
            return None

        # The youngest older store to the same word forwards; a store
        # with an unknown address (None) is speculated past.  Most
        # stores miss on the address, so it is tested first.
        seq = uop.seq
        for store in reversed(thread.store_queue):
            if store.mem_addr != addr or store.seq >= seq:
                continue
            if store.info.is_partial_store:
                # Partial forwarding is not supported: the store must drain
                # to the cache first (Section 4.4.2's chunk-termination case).
                thread.stats.partial_store_block_cycles += 1
                core.hooks.on_partial_store_block(core, thread, store, now)
                return None
            if now < store.data_ready_cycle:
                return None  # store data not yet available to forward
            return raw, addr, store.store_value, 0, store.seq, None

        physical = addr + thread.addr_offset  # thread.phys_addr
        t0 = now + self.config.rbox_latency
        return (raw, addr, core.memory.get(physical, 0),
                core.hierarchy.load(core.core_id, physical, t0) - t0,
                None, None)

    def _store_pending(self, thread: HwThread, seq: int) -> bool:
        """Is the store-set dependence target still unexecuted?"""
        for store in thread.store_queue:
            if store.seq == seq:
                return store.mem_addr is None
        return False

    # -- store execution --------------------------------------------------------
    def execute_store(self, thread: HwThread, uop: Uop, now: int) -> None:
        """Resolve a store's address and data; check for order violations."""
        values = self.core.regfile.values
        uop.raw_addr = (values[uop.phys_srcs[0]] + uop.instr.imm) & MASK64
        uop.mem_addr = uop.raw_addr & WORD_MASK
        uop.store_value = values[uop.phys_srcs[1]]
        uop.data_ready_cycle = now + self.config.store_data_delay
        self.core.store_sets.store_completed(thread.tid, uop.pc, uop.seq)
        self._check_violations(thread, uop, now)

    def _check_violations(self, thread: HwThread, store: Uop, now: int) -> None:
        """Squash younger loads that read stale data past this store."""
        victim: Optional[Uop] = None
        for load in thread.load_queue:
            if load.seq <= store.seq or load.mem_addr != store.mem_addr:
                continue
            if load.state not in (UopState.ISSUED, UopState.EXECUTED,
                                  UopState.RETIRED):
                continue
            if (load.forwarded_from is not None
                    and load.forwarded_from >= store.seq):
                continue  # got its value from this store or a younger one
            if victim is None or load.seq < victim.seq:
                victim = load
        if victim is not None:
            thread.stats.memory_violations += 1
            self.core.store_sets.record_violation(victim.pc, store.pc)
            self.core.squash_from(thread, victim.seq, now,
                                  redirect_pc=victim.pc,
                                  reason="memory-order violation")

    # -- architectural memory ------------------------------------------------
    def commit_store(self, thread: HwThread, uop: Uop) -> None:
        """Write a draining store's value to the architectural memory image."""
        key = thread.phys_addr(uop.mem_addr)
        if self.core.memory_journal is not None:
            # Undo log for SRTR rollback: old value (None = key absent).
            self.core.memory_journal(key, self.core.memory.get(key))
        if uop.info.is_partial_store:
            old = self.core.memory.get(key, 0)
            self.core.memory[key] = merge_partial_store(
                uop.raw_addr, old, uop.store_value)
        else:
            self.core.memory[key] = uop.store_value

    # -- store drain ----------------------------------------------------------
    def drain(self, now: int) -> None:
        """Move verified/retired stores into the merge buffer, in order."""
        core = self.core
        hooks = core.hooks
        release_delay = core.store_release_delay
        budget = 4
        for thread in core.threads:
            store_queue = thread.store_queue
            while budget and store_queue:
                head = store_queue[0]
                if head.state is not _RETIRED:
                    break
                if now < head.retire_cycle + release_delay:
                    break  # central checker holds the store (lockstep)
                if (hooks.store_needs_verification(thread)
                        and not head.verified):
                    break
                if not core.hierarchy.store_drain(
                        core.core_id, thread.phys_addr(head.mem_addr), now):
                    break  # merge buffer full: back-pressure
                store_queue.pop(0)
                self.commit_store(thread, head)
                log = core.drain_log.get(thread.tid)
                if log is not None:
                    # Record the committed memory word (merged for partial
                    # stores) so the stream compares against the golden
                    # model's architectural store effects.
                    committed = core.memory[thread.phys_addr(head.mem_addr)]
                    log.append((head.instr.op.name, head.mem_addr, committed))
                thread.stats.store_lifetime_sum += now - head.retire_cycle
                thread.stats.store_lifetime_count += 1
                hooks.on_store_drained(core, thread, head, now)
                budget -= 1
