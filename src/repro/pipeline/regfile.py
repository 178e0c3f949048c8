"""Physical register file and per-thread register renaming.

Table 1: 512 physical registers backing 256 architectural registers
(64 per hardware thread context).  Values are held in the physical
registers themselves, which is what makes the simulation value-true:
redundant threads really compute, wrong-path uops really execute, and
injected bit flips really propagate.

The core's rename, writeback and retire stages do this bookkeeping
inline on ``values``, ``ready``, ``free`` and ``RenameMap.map``; the
methods here are the reference they follow, which the checkpoint
restore and the unit tests call.
"""

from collections import deque
from typing import Deque, List

from repro.isa.instructions import NUM_ARCH_REGS, ZERO_REG


class OutOfPhysicalRegisters(Exception):
    """No free physical register at rename time (caller must stall)."""


class PhysicalRegisterFile:
    def __init__(self, num_regs: int = 512) -> None:
        self.num_regs = num_regs
        self.values: List[int] = [0] * num_regs
        self.ready: List[bool] = [True] * num_regs
        #: Free registers, allocated from the left, released to the right.
        self.free: Deque[int] = deque(range(num_regs))

    @property
    def free_count(self) -> int:
        return len(self.free)

    def allocate(self) -> int:
        if not self.free:
            raise OutOfPhysicalRegisters()
        reg = self.free.popleft()
        self.ready[reg] = False
        return reg

    def release(self, reg: int) -> None:
        self.ready[reg] = True
        self.free.append(reg)

    def write(self, reg: int, value: int) -> None:
        self.values[reg] = value
        self.ready[reg] = True

    def read(self, reg: int) -> int:
        return self.values[reg]

    def is_ready(self, reg: int) -> bool:
        return self.ready[reg]


class RenameMap:
    """One hardware thread's architectural-to-physical mapping."""

    def __init__(self, regfile: PhysicalRegisterFile) -> None:
        self.regfile = regfile
        free = regfile.free
        if len(free) < NUM_ARCH_REGS:
            raise OutOfPhysicalRegisters()
        #: Per architectural register, its current physical register:
        #: the first free ones, allocated and written 0 in one step.
        self.map: List[int] = [free.popleft() for _ in range(NUM_ARCH_REGS)]
        for reg in self.map:
            regfile.values[reg] = 0
            regfile.ready[reg] = True

    def rename_dest(self, arch_reg: int) -> tuple:
        """Allocate a new physical register for ``arch_reg``.

        Returns ``(new_phys, prev_phys)``; the previous mapping is freed
        when the renaming uop retires, or restored if it squashes.
        """
        if arch_reg == ZERO_REG:
            raise ValueError("r0 is never renamed")
        new_reg = self.regfile.allocate()
        prev = self.map[arch_reg]
        self.map[arch_reg] = new_reg
        return new_reg, prev

    def undo_rename(self, arch_reg: int, new_reg: int, prev_reg: int) -> None:
        """Roll back a rename during squash (youngest-first order)."""
        assert self.map[arch_reg] == new_reg, "squash must unwind in order"
        self.map[arch_reg] = prev_reg
        self.regfile.release(new_reg)

    def architectural_value(self, arch_reg: int) -> int:
        """Committed-state read (only meaningful when the thread is idle)."""
        if arch_reg == ZERO_REG:
            return 0
        return self.regfile.read(self.map[arch_reg])
