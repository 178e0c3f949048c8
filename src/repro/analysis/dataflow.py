"""Dataflow analyses over the RISC-R CFG.

All register-set analyses represent sets as 64-bit integer bitmasks
(bit *i* = register *i*), so the fixpoint loops are a handful of integer
ops per block — cheap enough that the generator can afford to verify
every program it emits.  They read the per-instruction register masks
that :func:`~repro.analysis.cfg.build_cfg` decodes into each block.

Four solvers:

- :func:`solve_initialized` — forward reaching-definition existence.
  With ``must=True`` the meet is intersection (bit set ⇔ the register is
  written on *every* path: reads outside this set are *possibly*
  uninitialized).  With ``must=False`` the meet is union (bit set ⇔
  written on *some* path: reads outside this set are *definitely*
  uninitialized — an error, not a warning).
- :func:`solve_liveness` — backward liveness, for dead-store detection.
- :func:`solve_constants` — forward must-constant propagation using the
  opcodes' own ALU semantics (``OpInfo.alu``, what the executor and the
  pipeline compute), so a "statically known address" means exactly
  what the machine computes.
- :func:`solve_store_dirty` — forward "a store has retired since the
  last MEMBAR" predicate, for the publication-ordering check.

Every solver visits blocks in the order of the CFG's one depth-first
walk (:meth:`~repro.analysis.cfg.CFG.depth_first`): the forward
worklists pop the lowest reverse-postorder rank first, the store-dirty
pass sweeps in reverse postorder, and liveness sweeps in postorder.

The constant solver runs each block as a transfer list decoded once
per block: one step per register write, naming the write's ALU
function and source registers.  A CFG merge keeps the ``(register,
value)`` pairs every incoming state holds, as one intersection of the
states' item views.  A block whose merged input did not change since
its last visit is skipped (its output cannot change), and the solver
raises ``RuntimeError`` rather than return states that are not a
fixpoint when it has not converged within
``CONSTANT_VISITS_PER_BLOCK * n + CONSTANT_VISITS_BASE`` block visits
(``n`` blocks).
"""

from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cfg import CFG, BasicBlock
from repro.isa.instructions import (NUM_ARCH_REGS, ZERO_REG, AluFunction,
                                    Instruction)

ALL_REGS = (1 << NUM_ARCH_REGS) - 1
R0_ONLY = 1 << ZERO_REG

ConstState = Dict[int, int]  # reg -> known 64-bit value (absent = unknown)


# -- initialization (forward) ----------------------------------------------

def solve_initialized(cfg: CFG, entry_mask: int = R0_ONLY,
                      must: bool = True) -> List[int]:
    """Per-block IN masks of initialized registers.

    ``entry_mask`` names registers the caller treats as defined at
    program entry (always includes the hardwired ``r0``).
    """
    entry_mask |= R0_ONLY
    blocks = cfg.blocks
    entry = cfg.entry
    n = len(blocks)
    top = ALL_REGS if must else 0
    in_masks = [top] * n
    out_masks = [top] * n
    in_masks[entry] = entry_mask

    walk = cfg.depth_first()
    order, rank = walk.order, walk.rank
    # Every reachable block, lowest reverse-postorder rank first: a
    # sorted list of ranks is already a heap.
    worklist = list(range(len(order)))
    on_list = [False] * n
    for index in order:
        on_list[index] = True
    while worklist:
        index = order[heappop(worklist)]
        on_list[index] = False
        block = blocks[index]
        preds = block.predecessors
        if index == entry:
            # Entry may also have predecessors (loop back to entry);
            # must-init keeps the entry facts.
            in_mask = entry_mask
            if not must:
                for pred in preds:
                    in_mask |= out_masks[pred]
        elif must:
            in_mask = ALL_REGS
            for pred in preds:
                in_mask &= out_masks[pred]
        else:
            in_mask = 0
            for pred in preds:
                in_mask |= out_masks[pred]
        in_masks[index] = in_mask
        new_out = in_mask | block.def_mask
        if new_out != out_masks[index]:
            out_masks[index] = new_out
            for succ in block.successors:
                if not on_list[succ]:
                    heappush(worklist, rank[succ])
                    on_list[succ] = True
    return in_masks


# -- liveness (backward) ---------------------------------------------------

def solve_liveness(cfg: CFG) -> Tuple[List[int], List[int]]:
    """Per-block (live-in, live-out) register masks, swept in postorder
    until a sweep changes nothing."""
    blocks = cfg.blocks
    n = len(blocks)
    live_in = [0] * n
    live_out = [0] * n
    changed = True
    order = cfg.reachable()[::-1]
    while changed:
        changed = False
        for index in order:
            block = blocks[index]
            out = 0
            for succ in block.successors:
                out |= live_in[succ]
            new_in = block.use_mask | (out & ~block.def_mask)
            if out != live_out[index] or new_in != live_in[index]:
                live_out[index] = out
                live_in[index] = new_in
                changed = True
    return live_in, live_out


# -- constant propagation (forward) ----------------------------------------

#: The constant solver's visit cap is ``CONSTANT_VISITS_PER_BLOCK * n +
#: CONSTANT_VISITS_BASE`` for ``n`` blocks.  A safety net, not the
#: lattice height: after its first visit a block's in-state only ever
#: loses constants.
CONSTANT_VISITS_PER_BLOCK = 64
CONSTANT_VISITS_BASE = 256

#: The source operands of a register write, ``(a, a0, b, b0, c, c0)``:
#: the write reads registers a, b and c (c is rd for FMA), each with a
#: default value, a0, b0 or c0: 0 for ``r0`` or an absent operand,
#: ``None`` (unknown) for any other register.
_Operands = Tuple[int, Optional[int], int, Optional[int], int, Optional[int]]

#: One register write, decoded for the constant solver: ``(rd, alu,
#: operands, imm)``.  ``alu`` is ``None`` for a write whose value is
#: never known statically (a load; a call's link value, pc + 1, is not
#: modelled).  Otherwise rd becomes ``alu(a, b, c, imm)`` of the
#: operands' values when all are known, and unknown when one is not.
_ConstStep = Tuple[int, Optional[AluFunction], _Operands, int]

class _OperandTable(dict):
    """Source register list -> its operands, decoded once per list."""

    def __missing__(self, sources: Tuple[int, ...]) -> _Operands:
        a, b, c = (*sources, ZERO_REG, ZERO_REG, ZERO_REG)[:3]
        operands = self[sources] = (
            a, None if a else 0, b, None if b else 0, c, None if c else 0)
        return operands


def _const_step(instr: Instruction, operands: _OperandTable) -> _ConstStep:
    """The step of an instruction that writes a register."""
    return (instr.rd, instr.op.info.alu, operands[instr.source_regs],
            instr.imm)


def _run_steps(state: ConstState, steps: Sequence[_ConstStep]
               ) -> ConstState:
    """The state after ``steps``, as a new map."""
    state = dict(state)
    get, pop = state.get, state.pop
    for rd, alu, (a, a0, b, b0, c, c0), imm in steps:
        if alu is not None:
            x = get(a, a0)
            if x is not None:
                y = get(b, b0)
                if y is not None:
                    z = get(c, c0)
                    if z is not None:
                        state[rd] = alu(x, y, z, imm)
                        continue
        pop(rd, None)
    return state


def transfer_constants(state: ConstState, instr: Instruction) -> ConstState:
    """The must-constant state after ``instr``, as a new map."""
    if instr.writes_reg:
        return _run_steps(state, (_const_step(instr, _OperandTable()),))
    return dict(state)


def _solve_constants(cfg: CFG, code: List[List[_ConstStep]]
                     ) -> List[Optional[ConstState]]:
    blocks = cfg.blocks
    n = len(blocks)
    entry = cfg.entry
    walk = cfg.depth_first()
    order, rank = walk.order, walk.rank
    in_states: List[Optional[ConstState]] = [None] * n
    out_states: List[Optional[ConstState]] = [None] * n
    # Whatever flows back into the entry is met with the nothing-known
    # entry state, which absorbs it.
    in_states[entry] = {}
    worklist = [rank[entry]]
    on_list = [False] * n
    on_list[entry] = True
    visits = 0
    limit = CONSTANT_VISITS_PER_BLOCK * n + CONSTANT_VISITS_BASE
    while worklist:
        if visits == limit:
            raise RuntimeError(f"constants: no fixpoint after {limit} "
                               f"block visits ({n} blocks)")
        visits += 1
        index = order[heappop(worklist)]
        on_list[index] = False
        block = blocks[index]
        if index == entry:
            merged = in_states[entry]
        else:
            # Queued by a predecessor's new state, so one is reached.
            merged = None
            for pred in block.predecessors:
                out = out_states[pred]
                if out is None:
                    continue
                if merged is None:
                    merged = out
                elif not merged.items() <= out.items():
                    merged = dict(merged.items() & out.items())
        if merged == in_states[index] and out_states[index] is not None:
            continue  # same input as the last visit: same output
        in_states[index] = merged
        state = _run_steps(merged, code[index])
        if out_states[index] != state:
            out_states[index] = state
            for succ in block.successors:
                if not on_list[succ]:
                    heappush(worklist, rank[succ])
                    on_list[succ] = True
    return in_states


def _compile(cfg: CFG) -> Tuple[List[List[_ConstStep]],
                                List[List[Tuple[int, int, int]]]]:
    """Per block, the constant steps of its register writes and, for
    each store, ``(steps before it, pc, ra)``."""
    operands = _OperandTable()
    code, stores = [], []
    for block in cfg.blocks:
        steps: List[_ConstStep] = []
        probes = []
        for pc, instr in zip(block.pcs(), block.instructions):
            if instr.writes_reg:
                steps.append(_const_step(instr, operands))
            elif instr.op.info.is_store:
                probes.append((len(steps), pc, instr.ra))
        code.append(steps)
        stores.append(probes)
    return code, stores


def solve_constants(cfg: CFG) -> List[Optional[ConstState]]:
    """Per-block IN constant maps (``None`` for blocks never reached).

    Raises ``RuntimeError`` when the visit cap is hit before the
    fixpoint.
    """
    in_states = _solve_constants(cfg, _compile(cfg)[0])
    # A block met from one state holds that state object: hand out
    # copies.
    return [None if state is None else dict(state) for state in in_states]


def known_store_bases(cfg: CFG) -> Dict[int, Optional[int]]:
    """The constant value of the base register (ra) of every store in a
    reachable block, by pc: ``None`` when it is not statically known."""
    code, stores = _compile(cfg)
    const_in = _solve_constants(cfg, code)
    bases: Dict[int, Optional[int]] = {}
    for index in cfg.reachable():
        probes = stores[index]
        if not probes:
            continue
        state = const_in[index] or {}
        steps = code[index]
        done = 0
        for before, pc, ra in probes:
            state = _run_steps(state, steps[done:before])
            done = before
            bases[pc] = state.get(ra, None if ra else 0)
    return bases


# -- membar ordering (forward) ---------------------------------------------

def solve_store_dirty(cfg: CFG) -> List[bool]:
    """Per-block IN flags: may a store precede us without a MEMBAR since?

    Meet is OR (may-analysis): the publication check must fire if *any*
    path reaches a shared store with an unfenced plain store behind it.
    Swept in reverse postorder until a sweep changes nothing.
    """
    n = len(cfg.blocks)
    in_dirty = [False] * n
    out_dirty = [False] * n

    def transfer(block: BasicBlock, dirty: bool) -> bool:
        for instr in block.instructions:
            if instr.is_membar:
                dirty = False
            elif instr.is_store:
                dirty = True
        return dirty

    changed = True
    order = cfg.reachable()
    while changed:
        changed = False
        for index in order:
            block = cfg.blocks[index]
            dirty = any(out_dirty[p] for p in block.predecessors)
            new_out = transfer(block, dirty)
            if dirty != in_dirty[index] or new_out != out_dirty[index]:
                in_dirty[index] = dirty
                out_dirty[index] = new_out
                changed = True
    return in_dirty
