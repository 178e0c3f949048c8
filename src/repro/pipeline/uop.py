"""Dynamic instructions (uops) and fetch chunks."""

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.isa.instructions import Instruction


class UopState(enum.Enum):
    FETCHED = enum.auto()    # in the fetch pipe / rate-matching buffer
    RENAMED = enum.auto()    # mapped, travelling to the instruction queue
    QUEUED = enum.auto()     # waiting in the QBOX instruction queue
    ISSUED = enum.auto()     # issued to RBOX/EBOX, executing
    EXECUTED = enum.auto()   # result produced, waiting to retire
    RETIRED = enum.auto()
    SQUASHED = enum.auto()


@dataclass(eq=False, slots=True)
class Uop:
    """One dynamic instance of an instruction.

    Compared by identity: ``seq`` is unique per core, so the load and
    store queues' ``in`` / ``remove`` need nothing more.
    """

    seq: int                     # core-wide age (rename order)
    thread: int                  # hardware thread context id
    pc: int
    instr: Instruction
    state: UopState = UopState.FETCHED

    # Control-flow prediction (filled at fetch).
    pred_taken: bool = False
    pred_target: Optional[int] = None
    # For trailing threads: the outcome promised by the line prediction
    # queue; a divergence at execute is a detected fault, not a mispredict.
    outcome_known: bool = False

    # Rename state.
    phys_srcs: List[int] = field(default_factory=list)
    phys_dest: Optional[int] = None
    prev_phys_dest: Optional[int] = None
    ras_snapshot: Optional[list] = None

    # Queue / execute state.
    queue_half: Optional[int] = None
    queue_order: int = 0              # insertion stamp (select age order)
    waiting: int = 0                  # sources not yet ready (wakeup)
    fu: Optional[tuple] = None        # (FuClass, unit index) actually used
    result: Optional[int] = None
    actual_taken: bool = False
    actual_target: Optional[int] = None

    # Memory state.
    mem_addr: Optional[int] = None    # word-aligned effective address
    raw_addr: Optional[int] = None    # pre-alignment (selects STH half)
    store_value: Optional[int] = None
    data_ready_cycle: int = -1        # store data trails its address
    verified: bool = False            # output comparison done (RMT stores)
    forwarded_from: Optional[int] = None  # seq of the store forwarded from
    memdep_seq: Optional[int] = None  # store-sets dependence (set at rename)
    load_index: Optional[int] = None   # program-order load number (LVQ tag)
    lvq_addr_check: Optional[int] = None  # address the LVQ entry recorded
    store_index: Optional[int] = None  # program-order store number
    lpq_half_hint: Optional[int] = None  # PSR: leading counterpart's half

    # Timing.
    fetch_cycle: int = -1
    queue_cycle: int = -1
    issue_cycle: int = -1
    complete_cycle: int = -1
    retire_cycle: int = -1

    def __repr__(self) -> str:  # compact, for debugging traces
        return (f"<uop#{self.seq} t{self.thread} pc={self.pc} "
                f"{self.instr.op.name} {self.state.name}>")


@dataclass
class FetchChunk:
    """Up to eight contiguous instructions fetched together."""

    thread: int
    start_pc: int
    uops: List[Uop]
    next_pc: int                 # predicted (leading) / exact (trailing)
    fetch_cycle: int = -1
    # PSR hints for trailing-thread chunks, one per uop.
    half_hints: Optional[List[Optional[int]]] = None

    def __len__(self) -> int:
        return len(self.uops)
