"""Dynamic instructions (uops) and fetch chunks."""

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.isa.instructions import Instruction, OpInfo


class UopState(enum.Enum):
    FETCHED = enum.auto()    # in the fetch pipe / rate-matching buffer
    RENAMED = enum.auto()    # mapped, travelling to the instruction queue
    QUEUED = enum.auto()     # waiting in the QBOX instruction queue
    ISSUED = enum.auto()     # issued to RBOX/EBOX, executing
    EXECUTED = enum.auto()   # result produced, waiting to retire
    RETIRED = enum.auto()
    SQUASHED = enum.auto()


_FETCHED = UopState.FETCHED


@dataclass(eq=False, slots=True)
class Uop:
    """One dynamic instance of an instruction.

    Compared by identity: ``seq`` is unique per core, so the load and
    store queues' ``in`` / ``remove`` need nothing more.

    ``info`` is the opcode's :class:`OpInfo`, taken once at fetch: the
    pipeline reads its flags instead of the instruction's ``is_*``
    properties.  The constructor is written out rather than generated,
    since fetch builds one uop per instruction: it stores each default
    below as a constant (``tests/test_pipeline_invariants.py`` holds
    the two in step).
    """

    seq: int                     # core-wide age (rename order)
    thread: int                  # hardware thread context id
    pc: int
    instr: Instruction
    info: OpInfo
    state: UopState = _FETCHED

    # Control-flow prediction (filled at fetch).
    pred_taken: bool = False
    pred_target: Optional[int] = None
    # For trailing threads: the outcome promised by the line prediction
    # queue; a divergence at execute is a detected fault, not a mispredict.
    outcome_known: bool = False

    # Rename state.
    phys_srcs: Sequence[int] = ()
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

    def __init__(self, seq: int, thread: int, pc: int, instr: Instruction,
                 fetch_cycle: int = -1, outcome_known: bool = False) -> None:
        self.seq = seq
        self.thread = thread
        self.pc = pc
        self.instr = instr
        self.info = instr.op.info
        self.state = _FETCHED
        self.pred_taken = False
        self.pred_target = None
        self.outcome_known = outcome_known
        self.phys_srcs = ()
        self.phys_dest = None
        self.prev_phys_dest = None
        self.ras_snapshot = None
        self.queue_half = None
        self.queue_order = 0
        self.waiting = 0
        self.fu = None
        self.result = None
        self.actual_taken = False
        self.actual_target = None
        self.mem_addr = None
        self.raw_addr = None
        self.store_value = None
        self.data_ready_cycle = -1
        self.verified = False
        self.forwarded_from = None
        self.memdep_seq = None
        self.load_index = None
        self.lvq_addr_check = None
        self.store_index = None
        self.lpq_half_hint = None
        self.fetch_cycle = fetch_cycle
        self.queue_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.retire_cycle = -1

    def __repr__(self) -> str:  # compact, for debugging traces
        return (f"<uop#{self.seq} t{self.thread} pc={self.pc} "
                f"{self.instr.op.name} {self.state.name}>")


@dataclass(slots=True)
class FetchChunk:
    """Up to eight contiguous instructions fetched together (built
    positionally: fetch makes one per chunk)."""

    thread: int
    start_pc: int
    uops: List[Uop]
    next_pc: int                 # predicted (leading) / exact (trailing)
    fetch_cycle: int = -1
    # PSR hints for trailing-thread chunks, one per uop.
    half_hints: Optional[List[Optional[int]]] = None

    def __len__(self) -> int:
        return len(self.uops)
