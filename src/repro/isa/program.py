"""Static program representation.

A :class:`Program` is the unit of work the machines run: an instruction
sequence plus initial data-memory contents.  Each *logical thread* in a
run gets its own address-space id, so multiprogrammed workloads never
interfere through memory.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.isa.instructions import INSTRUCTION_BYTES, Instruction

if TYPE_CHECKING:  # pragma: no cover
    from repro.isa.executor import RecordedPath


@dataclass
class Program:
    """An immutable instruction sequence with initial data memory.

    ``code_base`` is the byte address of instruction 0 (used by the
    instruction cache); program counters count instructions, not bytes.
    """

    name: str
    instructions: List[Instruction]
    initial_memory: Dict[int, int] = field(default_factory=dict)
    entry: int = 0
    code_base: int = 0x1000_0000
    metadata: Dict[str, object] = field(default_factory=dict)
    _path: Optional["RecordedPath"] = field(default=None, init=False,
                                            repr=False, compare=False)
    #: ``(horizon, golden run)`` of the architectural oracle
    #: (``repro.core.faults._arch_golden``), the last horizon asked for.
    _golden: Optional[tuple] = field(default=None, init=False, repr=False,
                                     compare=False)
    #: Warmed cache and predictor states of the layouts this program
    #: leads (``repro.core.machine.Machine.warm``): key -> (the layout's
    #: other programs, snapshot).
    _warm: Dict[tuple, tuple] = field(default_factory=dict, init=False,
                                      repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.instructions:
            raise ValueError(f"program {self.name!r} has no instructions")
        if not 0 <= self.entry < len(self.instructions):
            raise ValueError(f"program {self.name!r}: entry {self.entry} out of range")
        for index, instr in enumerate(self.instructions):
            if instr.target is not None and not (
                0 <= instr.target < len(self.instructions)
            ):
                raise ValueError(
                    f"program {self.name!r}: instruction {index} ({instr}) "
                    f"targets {instr.target}, outside [0, {len(self.instructions)})"
                )

    def __len__(self) -> int:
        return len(self.instructions)

    def fetch(self, pc: int) -> Instruction:
        """Return the instruction at instruction-index ``pc``."""
        return self.instructions[pc]

    def in_range(self, pc: int) -> bool:
        return 0 <= pc < len(self.instructions)

    def pc_to_addr(self, pc: int) -> int:
        """Byte address of instruction ``pc`` (for the instruction cache)."""
        return self.code_base + pc * INSTRUCTION_BYTES

    def recorded_path(self, steps: int) -> "RecordedPath":
        """The program's fault-free architectural path, at least
        ``steps`` steps long unless it halts first (it may be longer: use
        a prefix).  Warm-ups replay it and the fault classifier compares
        runs against it.

        Recorded once and kept, which is sound because a program never
        changes after construction; a longer request records again.
        Threads that record at once each return a path that serves their
        own request, and every recording of a prefix is the same.
        """
        path = self._path
        if path is None or (len(path) < steps and not path.halted):
            from repro.isa.executor import record_path

            path = self._path = record_path(self, steps)
        return path

    @property
    def static_branch_count(self) -> int:
        return sum(1 for instr in self.instructions if instr.is_control)

    @property
    def static_load_count(self) -> int:
        return sum(1 for instr in self.instructions if instr.is_load)

    @property
    def static_store_count(self) -> int:
        return sum(1 for instr in self.instructions if instr.is_store)
