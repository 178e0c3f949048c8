"""Per-hardware-thread-context state.

A hardware thread context holds everything the paper makes per-thread to
avoid inter-thread deadlock (Section 4.3): the rate-matching buffer, the
rename map and PBOX structures, load/store-queue partitions, and the
in-order completion (ROB) state.
"""

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional

from repro.isa.instructions import INSTRUCTION_BYTES, NUM_ARCH_REGS
from repro.isa.program import Program
from repro.pipeline.regfile import PhysicalRegisterFile, RenameMap
from repro.pipeline.uop import FetchChunk, Uop


class ThreadRole(enum.Enum):
    SINGLE = "single"     # no redundancy (base machine)
    LEADING = "leading"   # RMT leading thread
    TRAILING = "trailing"  # RMT trailing thread


@dataclass
class ThreadStats:
    retired: int = 0
    done_cycle: Optional[int] = None
    branch_mispredicts: int = 0
    misfetches: int = 0
    line_predictions: int = 0
    squashed_uops: int = 0
    memory_violations: int = 0
    fetch_icache_stall_cycles: int = 0
    map_stall_sq_full: int = 0
    map_stall_lq_full: int = 0
    map_stall_iq_full: int = 0
    store_lifetime_sum: int = 0    # retire -> drain, leading/single stores
    store_lifetime_count: int = 0
    lvq_writes: int = 0
    lvq_reads: int = 0
    # Head-of-ROB blocking, sampled every cycle the head cannot retire —
    # the watchdog's hang-forensics counters (repro.recovery.watchdog).
    membar_block_cycles: int = 0       # barrier waiting on store drain
    partial_store_block_cycles: int = 0  # load blocked on partial forward
    retire_stall_cycles: int = 0       # hooks vetoed retirement (LVQ full)


class HwThread:
    """One hardware thread context of an SMT core."""

    def __init__(self, tid: int, program: Program, regfile: PhysicalRegisterFile,
                 role: ThreadRole = ThreadRole.SINGLE, asid: int = 0,
                 rmb_chunks: int = 4, lq_capacity: int = 64,
                 sq_capacity: int = 64) -> None:
        self.tid = tid
        self.program = program
        #: Instructions in ``program``: PCs wrap modulo this.
        self.program_length = len(program)
        self.role = role
        #: The role as flags, fixed at construction like the role itself.
        self.is_trailing = role is ThreadRole.TRAILING
        self.is_leading = role is ThreadRole.LEADING
        self.asid = asid
        # Distinct address spaces live in distinct high bits; the low-bit
        # stagger models physical-page placement so that co-scheduled
        # programs with identical virtual layouts don't collide on the
        # same cache sets (without it, four programs fetching the same
        # virtual PC range livelock a 2-way L1I set).
        self.addr_offset = (asid << 33) + asid * 161 * 64
        #: The RMT redundant pair (:class:`repro.core.rmt.RedundantPair`)
        #: holding this thread, set when the pair is wired; ``None`` on
        #: machines without redundant threads.
        self.pair = None
        self.core = None                           # owning Core (set on add)
        self.rename = RenameMap(regfile)
        self.stats = ThreadStats()

        # Fetch state.
        self.fetch_pc = program.entry
        self.fetch_stalled_until = 0
        self.fetch_halted = False
        #: Trailing threads normally fetch the exact retired path from the
        #: line prediction queue; clearing this reverts to the paper's
        #: rejected alternative (Section 4.4): the trailing thread fetches
        #: through the shared line/branch predictors like any other thread.
        self.fetch_via_lpq = self.is_trailing
        self.done = False
        self.target_instructions: Optional[int] = None

        # Rate-matching buffer (per-thread, Section 3.1): a plain deque,
        # since fetch never lets it and the IBOX pipe together hold more
        # than ``rmb_capacity`` chunks.
        if rmb_chunks <= 0:
            raise ValueError(f"rmb.t{tid}: capacity must be positive, "
                             f"got {rmb_chunks}")
        self.rmb: Deque[FetchChunk] = deque()
        self.rmb_capacity = rmb_chunks
        self.rmb_inflight = 0   # chunks in the IBOX pipe headed for the RMB

        # Completion unit view: every renamed uop in program order.
        self.rob: Deque[Uop] = deque()

        # Memory queues (partitioned or per-thread, Section 4.2).
        self.lq_capacity = lq_capacity
        self.sq_capacity = sq_capacity
        self.load_queue: List[Uop] = []    # program order, dealloc at retire
        self.store_queue: List[Uop] = []   # program order, dealloc at drain

        # Program-order indices for input replication / output comparison.
        self.next_load_index = 0
        self.next_store_index = 0

        # Committed (retirement-boundary) architectural view, maintained
        # by the completion unit.  This is what an SRTR-style checkpoint
        # snapshots: the next PC the retired path will execute, the
        # retired load/store counts, and the committed register values —
        # all exact at instruction granularity, independent of any
        # in-flight speculation (repro.recovery.checkpoint).
        self.committed_pc = program.entry
        self.committed_load_index = 0
        self.committed_store_index = 0
        self.arch_regs: List[int] = [0] * NUM_ARCH_REGS

        # IQ occupancy accounting (reservation happens at rename time).
        self.iq_occupancy = 0

    # -- address translation ---------------------------------------------
    def phys_addr(self, addr: int) -> int:
        """Map a program virtual address to the machine physical space."""
        return addr + self.addr_offset

    def code_addr(self, pc: int) -> int:
        """``phys_addr(program.pc_to_addr(pc))``, written out: fetch asks
        it for every chunk."""
        return (self.program.code_base + pc * INSTRUCTION_BYTES
                + self.addr_offset)

    def code_addrs(self, pcs: Iterable[int]) -> List[int]:
        """:meth:`code_addr` of each of ``pcs``, in order: instructions
        lie ``INSTRUCTION_BYTES`` apart from ``code_addr(0)`` on."""
        base = self.code_addr(0)
        return [base + pc * INSTRUCTION_BYTES for pc in pcs]

    # -- helpers -----------------------------------------------------------
    def rmb_load(self) -> int:
        """Occupancy metric for the ICOUNT-like thread chooser."""
        return len(self.rmb) + self.rmb_inflight

    def __repr__(self) -> str:
        return f"<hwthread {self.tid} {self.role.value} {self.program.name}>"
