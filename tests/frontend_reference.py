"""Reference implementations of the program front end.

Verbatim copies of the opcode semantics, the functional executor's step
and path recording, the gate's initialization and dead-store passes
and the must-constant solver as they stood before the front end
dispatched on data decoded once: ``if op is Op.X`` chains per
instruction, per-register loops over ``source_regs``, dict states met
register by register, a ``list.pop(0)`` worklist, and a visit cap that
returns whatever states it has.  They are slow on purpose — nothing
here was tuned — and the shipped code must compute exactly what they
compute (``tests/test_frontend_reference.py``).
"""

from array import array
from typing import Dict, List, Optional, Tuple

from repro.analysis.cfg import CFG, BasicBlock
from repro.analysis.checks import Finding, Severity
from repro.isa.executor import (_FELL_THROUGH, _LOAD, _OTHER, _ST, _STH,
                                _TAKEN, ArchState, RecordedPath, StepResult,
                                align_word, merge_partial_store)
from repro.isa.instructions import NUM_ARCH_REGS, ZERO_REG, Instruction, Op
from repro.isa.program import Program
from repro.util.bits import MASK64, to_signed, to_unsigned

ConstState = Dict[int, int]

ALL_REGS = (1 << NUM_ARCH_REGS) - 1
R0_ONLY = 1 << ZERO_REG


# ---------------------------------------------------------------------------
# Opcode semantics
# ---------------------------------------------------------------------------

def alu_result(instr: Instruction, a: int, b: int, c: int = 0) -> int:
    op = instr.op
    if op is Op.ADD:
        return to_unsigned(a + b)
    if op is Op.SUB:
        return to_unsigned(a - b)
    if op is Op.MUL:
        return to_unsigned(a * b)
    if op is Op.ADDI:
        return to_unsigned(a + instr.imm)
    if op is Op.LDI:
        return to_unsigned(instr.imm)
    if op is Op.CMPLT:
        return 1 if to_signed(a) < to_signed(b) else 0
    if op is Op.CMPEQ:
        return 1 if a == b else 0
    if op is Op.AND:
        return a & b
    if op is Op.OR:
        return a | b
    if op is Op.XOR:
        return a ^ b
    if op is Op.SHL:
        return to_unsigned(a << (b & 63))
    if op is Op.SHR:
        return (a & MASK64) >> (b & 63)
    if op is Op.ANDI:
        return a & to_unsigned(instr.imm)
    if op is Op.XORI:
        return a ^ to_unsigned(instr.imm)
    if op is Op.FADD:
        return to_unsigned(a + b)
    if op is Op.FMUL:
        return to_unsigned(a * b)
    if op is Op.FMA:
        return to_unsigned(a * b + c)
    if op is Op.FDIV:
        return to_unsigned(a // (b | 1))
    raise ValueError(f"alu_result called for non-ALU op {op.name}")


def branch_taken(instr: Instruction, a: int) -> bool:
    op = instr.op
    if op is Op.BEQZ:
        return a == 0
    if op is Op.BNEZ:
        return a != 0
    if op in (Op.BR, Op.JMP, Op.CALL, Op.RET):
        return True
    raise ValueError(f"branch_taken called for non-control op {op.name}")


# ---------------------------------------------------------------------------
# Functional executor
# ---------------------------------------------------------------------------

class ReferenceExecutor:
    """``FunctionalExecutor`` with the step as it stood."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.state = ArchState(pc=program.entry,
                               memory=dict(program.initial_memory))
        self.retired = 0

    def step(self) -> StepResult:
        state = self.state
        if state.halted:
            raise RuntimeError(f"program {self.program.name!r} already halted")
        pc = state.pc
        if not self.program.in_range(pc):
            raise RuntimeError(
                f"program {self.program.name!r} ran off code at pc={pc}")
        instr = self.program.fetch(pc)
        result = StepResult(pc=pc, instr=instr, next_pc=pc + 1)
        op = instr.op

        if op in (Op.NOP, Op.MEMBAR):
            pass
        elif op is Op.HALT:
            state.halted = True
            result.halted = True
            result.next_pc = pc
        elif op is Op.LD:
            addr = align_word(state.read_reg(instr.ra) + instr.imm)
            value = state.read_mem(addr)
            state.write_reg(instr.rd, value)
            result.load = (addr, value)
        elif op is Op.ST:
            addr = align_word(state.read_reg(instr.ra) + instr.imm)
            value = state.read_reg(instr.rb)
            state.write_mem(addr, value)
            result.store = (addr, value)
        elif op is Op.STH:
            raw_addr = to_unsigned(state.read_reg(instr.ra) + instr.imm)
            addr = align_word(raw_addr)
            merged = merge_partial_store(raw_addr, state.read_mem(addr),
                                         state.read_reg(instr.rb))
            state.write_mem(addr, merged)
            result.store = (addr, merged)
        elif instr.is_control:
            a = state.read_reg(instr.ra)
            taken = branch_taken(instr, a)
            result.taken = taken
            if op is Op.CALL:
                state.write_reg(instr.rd, pc + 1)
                result.next_pc = instr.target
            elif op in (Op.JMP, Op.RET):
                result.next_pc = a % len(self.program)
            elif taken:
                result.next_pc = instr.target
        else:
            a = state.read_reg(instr.ra)
            b = state.read_reg(instr.rb)
            c = state.read_reg(instr.rd)
            state.write_reg(instr.rd, alu_result(instr, a, b, c))

        state.pc = result.next_pc
        self.retired += 1
        return result


# ---------------------------------------------------------------------------
# The gate's register passes: A1/A2 (initialization) and A3 (dead stores)
# ---------------------------------------------------------------------------

def written_reg(instr: Instruction) -> Optional[int]:
    return instr.rd if instr.writes_reg else None


def block_def_mask(block: BasicBlock) -> int:
    mask = 0
    for instr in block.instructions:
        reg = written_reg(instr)
        if reg is not None:
            mask |= 1 << reg
    return mask


def block_use_def(block: BasicBlock) -> Tuple[int, int]:
    """(upward-exposed uses, defs) masks for backward liveness."""
    use = 0
    defs = 0
    for instr in block.instructions:
        for reg in instr.source_regs:
            if not defs >> reg & 1:
                use |= 1 << reg
        reg = written_reg(instr)
        if reg is not None:
            defs |= 1 << reg
    return use, defs


# -- initialization (forward) ----------------------------------------------

def solve_initialized(cfg: CFG, entry_mask: int = R0_ONLY,
                      must: bool = True) -> List[int]:
    """Per-block IN masks of initialized registers.

    ``entry_mask`` names registers the caller treats as defined at
    program entry (always includes the hardwired ``r0``).
    """
    entry_mask |= R0_ONLY
    n = len(cfg.blocks)
    top = ALL_REGS if must else 0
    in_masks = [top] * n
    out_masks = [top] * n
    in_masks[cfg.entry] = entry_mask
    gen = [block_def_mask(b) for b in cfg.blocks]

    worklist = list(cfg.reachable())
    on_list = [False] * n
    for b in worklist:
        on_list[b] = True
    while worklist:
        index = worklist.pop(0)
        on_list[index] = False
        block = cfg.blocks[index]
        if index == cfg.entry:
            in_mask = entry_mask
            # Entry may also have predecessors (loop back to entry).
            for pred in block.predecessors:
                in_mask = (in_mask | out_masks[pred] if not must
                           else in_mask)  # must-init keeps entry facts
        else:
            preds = block.predecessors
            if not preds:
                in_mask = entry_mask if not must else ALL_REGS
            else:
                in_mask = top
                for pred in preds:
                    if must:
                        in_mask &= out_masks[pred]
                    else:
                        in_mask |= out_masks[pred]
        in_masks[index] = in_mask
        new_out = in_mask | gen[index]
        if new_out != out_masks[index]:
            out_masks[index] = new_out
            for succ in block.successors:
                if not on_list[succ]:
                    worklist.append(succ)
                    on_list[succ] = True
    return in_masks


# -- liveness (backward) ---------------------------------------------------

def solve_liveness(cfg: CFG) -> Tuple[List[int], List[int]]:
    """Per-block (live-in, live-out) register masks."""
    n = len(cfg.blocks)
    use_def = [block_use_def(b) for b in cfg.blocks]
    live_in = [0] * n
    live_out = [0] * n
    changed = True
    order = list(reversed(cfg.reachable()))
    while changed:
        changed = False
        for index in order:
            block = cfg.blocks[index]
            out = 0
            for succ in block.successors:
                out |= live_in[succ]
            use, defs = use_def[index]
            new_in = use | (out & ~defs)
            if out != live_out[index] or new_in != live_in[index]:
                live_out[index] = out
                live_in[index] = new_in
                changed = True
    return live_in, live_out


def check_init_reads(cfg: CFG, entry_mask: int,
                     findings: List[Finding]) -> None:
    must_in = solve_initialized(cfg, entry_mask, must=True)
    may_in = solve_initialized(cfg, entry_mask, must=False)
    reported: set = set()
    for index in cfg.reachable():
        block = cfg.blocks[index]
        must = must_in[index]
        may = may_in[index]
        pc = block.start
        for instr in block.instructions:
            for reg in instr.source_regs:
                if reg == ZERO_REG or (pc, reg) in reported:
                    continue
                if not may >> reg & 1:
                    reported.add((pc, reg))
                    findings.append(Finding(
                        "A1-uninit-read", Severity.ERROR,
                        f"r{reg} read by '{instr}' but never written on "
                        f"any path from entry", pc))
                elif not must >> reg & 1:
                    reported.add((pc, reg))
                    findings.append(Finding(
                        "A2-maybe-uninit-read", Severity.WARNING,
                        f"r{reg} read by '{instr}' is uninitialized on "
                        f"at least one path from entry", pc))
            reg = written_reg(instr)
            if reg is not None:
                must |= 1 << reg
                may |= 1 << reg
            pc += 1


def check_dead_stores(cfg: CFG, findings: List[Finding]) -> None:
    _, live_out = solve_liveness(cfg)
    for index in cfg.reachable():
        block = cfg.blocks[index]
        live = live_out[index]
        for offset in range(len(block.instructions) - 1, -1, -1):
            instr = block.instructions[offset]
            reg = written_reg(instr)
            pc = block.start + offset
            if reg is not None:
                if not live >> reg & 1:
                    findings.append(Finding(
                        "A3-dead-store", Severity.WARNING,
                        f"result of '{instr}' (r{reg}) is overwritten or "
                        f"discarded before any read", pc))
                live &= ~(1 << reg)
            for src in instr.source_regs:
                live |= 1 << src


# ---------------------------------------------------------------------------
# Must-constant propagation
# ---------------------------------------------------------------------------

_CONST_KILL_OPS = {Op.LD}  # loads produce runtime values


def transfer_constants(state: ConstState, instr: Instruction) -> ConstState:
    reg = written_reg(instr)
    if instr.is_call and instr.rd != ZERO_REG:
        # Link value is a known constant (pc + 1), but we do not model
        # it; treat as unknown.
        state.pop(instr.rd, None)
        return state
    if reg is None:
        return state
    if instr.op in _CONST_KILL_OPS:
        state.pop(reg, None)
        return state
    sources = instr.source_regs
    values = []
    known = True
    for src in sources:
        if src == ZERO_REG:
            values.append(0)
        elif src in state:
            values.append(state[src])
        else:
            known = False
            break
    if not known:
        state.pop(reg, None)
        return state
    a = values[0] if len(values) > 0 else 0
    b = values[1] if len(values) > 1 else 0
    if instr.op is Op.FMA:
        # source_regs order for FMA is (ra, rb, rd).
        a, b, c = values
    else:
        c = 0
    try:
        state[reg] = alu_result(instr, a, b, c)
    except ValueError:
        state.pop(reg, None)
    return state


def _meet_constants(states: List[Optional[ConstState]]) -> ConstState:
    live = [s for s in states if s is not None]
    if not live:
        return {}
    result = dict(live[0])
    for other in live[1:]:
        for reg in list(result):
            if other.get(reg) != result[reg]:
                del result[reg]
    return result


def solve_constants(cfg: CFG) -> List[Optional[ConstState]]:
    """Per-block IN constant maps (``None`` for blocks never reached);
    stops silently after ``64 * n + 256`` block visits."""
    n = len(cfg.blocks)
    in_states: List[Optional[ConstState]] = [None] * n
    out_states: List[Optional[ConstState]] = [None] * n
    in_states[cfg.entry] = {}
    worklist = [cfg.entry]
    on_list = [False] * n
    on_list[cfg.entry] = True
    iterations = 0
    limit = 64 * n + 256  # safety net: lattice height is bounded anyway
    while worklist and iterations < limit:
        iterations += 1
        index = worklist.pop(0)
        on_list[index] = False
        block = cfg.blocks[index]
        if index != cfg.entry or block.predecessors:
            preds = [out_states[p] for p in block.predecessors]
            merged = _meet_constants(preds)
            if index == cfg.entry:
                # Entry facts survive only if consistent with loop-backs.
                merged = _meet_constants([merged, in_states[index] or {}])
            in_states[index] = merged
        state = dict(in_states[index] or {})
        for instr in block.instructions:
            transfer_constants(state, instr)
        if out_states[index] != state:
            out_states[index] = state
            for succ in block.successors:
                if not on_list[succ]:
                    worklist.append(succ)
                    on_list[succ] = True
    return in_states


# ---------------------------------------------------------------------------
# Recorded paths
# ---------------------------------------------------------------------------

def record_path(program: Program, steps: int) -> RecordedPath:
    executor = ReferenceExecutor(program)
    pcs = array("I")
    kinds = bytearray()
    addrs = array("Q")
    values = array("Q")
    for _ in range(steps):
        if executor.state.halted:
            break
        step = executor.step()
        if step.load is not None:
            kind, (addr, value) = _LOAD, step.load
        elif step.store is not None:
            kind = _STH if step.instr.op is Op.STH else _ST
            addr, value = step.store
        else:
            kind = ((_TAKEN if step.taken else _FELL_THROUGH)
                    if step.instr.is_conditional else _OTHER)
            addr = value = 0
        pcs.append(step.pc)
        kinds.append(kind)
        addrs.append(addr)
        values.append(value)
    return RecordedPath(pcs, bytes(kinds), addrs, values,
                        executor.state.halted)
