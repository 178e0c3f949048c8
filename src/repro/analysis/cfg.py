"""Control-flow graph construction for RISC-R programs.

The sphere-of-replication argument (paper Section 3, Figure 1) is
*structural*: a fault is detectable only if every output crossing the
sphere is compared.  The static verifier therefore needs a faithful
control-flow skeleton of the program it is about to certify.  This
module builds that skeleton: basic blocks, edges, and the conservative
treatment of indirect control flow.

Indirect flow
-------------

``JMP`` successors are unknowable in general.  Three sources of truth
are consulted, most precise first:

1. ``program.metadata["jump_table_targets"]`` — the generator records
   the exact landing pads of its jump table (see
   :mod:`repro.isa.generator`), so generated programs get a precise CFG.
2. An explicit ``indirect_targets`` argument from the caller.
3. Otherwise *every block leader* is a may-target (the standard
   conservative assumption used by binary CFG recovery).

``RET`` successors are the instruction after every ``CALL`` (the
return-site set), which is exact for the call/return discipline the
RISC-R generator and assembler emit and conservative otherwise.

Register facts
--------------

Construction also decodes what the register dataflow passes of
:mod:`repro.analysis.dataflow` read of each instruction, once: a block
holds, per instruction, the bit mask of the registers it reads and of
the register it writes, and the block's upward-exposed uses and
definitions as two masks.

Visit order
-----------

:meth:`CFG.depth_first` walks the graph once, depth first from the
entry, and keeps the walk: the reachable blocks in reverse postorder
(RPO) and the back edges the loop check reads.  In RPO every edge but
a back edge runs forward, so a forward fixpoint that visits the lowest
rank first has met a block's forward predecessors before the block
itself, and a backward one that sweeps in postorder has met its
successors.  The fixpoint a monotone framework reaches does not depend
on the visit order; the number of visits it takes does.
"""

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.isa.instructions import NUM_ARCH_REGS, Instruction
from repro.isa.program import Program


@dataclass
class BasicBlock:
    """A maximal straight-line instruction run ``[start, end)``."""

    index: int
    start: int
    end: int  # exclusive
    instructions: List[Instruction]
    successors: List[int] = field(default_factory=list)
    predecessors: List[int] = field(default_factory=list)
    #: True when the block ends by running off the end of the program
    #: (no terminator, no fallthrough target) — a verifier error.
    falls_off_end: bool = False
    #: True when the terminator is an indirect jump resolved
    #: conservatively (all leaders) rather than from a known table.
    imprecise_indirect: bool = False
    #: Per instruction, the mask of the registers it reads (bit *i* =
    #: register *i*, ``r0`` included) and of the register it writes (0
    #: when it writes none).
    read_masks: List[int] = field(default_factory=list, repr=False)
    write_masks: List[int] = field(default_factory=list, repr=False)
    #: Registers read before any write in the block, and every register
    #: the block writes.
    use_mask: int = 0
    def_mask: int = 0

    @property
    def terminator(self) -> Optional[Instruction]:
        last = self.instructions[-1]
        return last if (last.is_control or last.is_halt) else None

    def pcs(self) -> range:
        return range(self.start, self.end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BasicBlock(#{self.index} [{self.start},{self.end}) "
                f"-> {self.successors})")


class DepthFirst(NamedTuple):
    """One depth-first walk of a CFG from its entry, each block's
    successors taken left to right.

    Every fixpoint over the CFG visits blocks in this walk's order:
    forward problems by ``rank``, backward ones in postorder.
    """

    #: The reachable blocks in reverse postorder: the entry first, and
    #: every edge that is not a back edge goes to a later block.
    order: Tuple[int, ...]
    #: Per block index, its position in ``order`` (``len(order)`` for an
    #: unreachable block).
    rank: Tuple[int, ...]
    #: The edges ``(tail, head)`` to a block on the walk's stack, in the
    #: order the walk meets them.
    back_edges: Tuple[Tuple[int, int], ...]


def _depth_first(blocks: Sequence[BasicBlock], entry: int) -> DepthFirst:
    # Iterative, with one successor iterator per open block, so deep
    # CFGs (gcc has ~900 blocks) never hit the recursion limit.
    seen = [False] * len(blocks)
    on_stack = [False] * len(blocks)
    postorder: List[int] = []
    back_edges: List[Tuple[int, int]] = []
    seen[entry] = on_stack[entry] = True
    stack = [(entry, iter(blocks[entry].successors))]
    while stack:
        node, successors = stack[-1]
        for succ in successors:
            if not seen[succ]:
                seen[succ] = on_stack[succ] = True
                stack.append((succ, iter(blocks[succ].successors)))
                break
            if on_stack[succ]:
                back_edges.append((node, succ))
        else:  # every successor met: the block is finished
            stack.pop()
            on_stack[node] = False
            postorder.append(node)
    order = tuple(reversed(postorder))
    rank = [len(order)] * len(blocks)
    for position, index in enumerate(order):
        rank[index] = position
    return DepthFirst(order=order, rank=tuple(rank),
                      back_edges=tuple(back_edges))


@dataclass
class CFG:
    """Control-flow graph: blocks indexed densely, entry first."""

    program: Program
    blocks: List[BasicBlock]
    entry: int
    #: pc -> block index, for every pc in the program.
    block_of_pc: Dict[int, int]
    #: Landing pads assumed for imprecise indirect jumps (empty when all
    #: indirect flow was resolved precisely).
    conservative_indirect_targets: FrozenSet[int] = frozenset()
    _walk: Optional[DepthFirst] = field(
        default=None, init=False, repr=False, compare=False)

    def block_at(self, pc: int) -> BasicBlock:
        return self.blocks[self.block_of_pc[pc]]

    def depth_first(self) -> DepthFirst:
        """The CFG's depth-first walk from the entry (see
        :class:`DepthFirst`).

        Computed on the first call and kept: only :func:`build_cfg`
        changes a CFG, so every later call returns the same walk.
        """
        if self._walk is None:
            self._walk = _depth_first(self.blocks, self.entry)
        return self._walk

    def reachable(self) -> Sequence[int]:
        """Block indices reachable from the entry, in reverse postorder
        (the entry first)."""
        return self.depth_first().order

    def back_edges(self) -> List[Tuple[int, int]]:
        """DFS back edges ``(tail, head)`` over the reachable subgraph.

        A back edge is an edge to a block currently on the DFS stack;
        each corresponds to (at least) one loop with head ``head``.
        """
        return list(self.depth_first().back_edges)

    def natural_loop(self, tail: int, head: int) -> FrozenSet[int]:
        """Blocks of the natural loop for back edge ``tail -> head``.

        Standard worklist over predecessors from the tail, stopping at
        the head.  With imprecise indirect edges the result is a
        superset of the true loop, which keeps every client check
        conservative.
        """
        body = {head, tail}
        stack = [tail]
        while stack:
            node = stack.pop()
            for pred in self.blocks[node].predecessors:
                if pred not in body:
                    body.add(pred)
                    stack.append(pred)
        return frozenset(body)


#: ``1 << r`` per register, one shared int each.
_REG_BITS = tuple(1 << reg for reg in range(NUM_ARCH_REGS))


class _SourceMasks(dict):
    """Source register list -> the mask of the registers it names."""

    def __missing__(self, sources: Tuple[int, ...]) -> int:
        mask = 0
        for reg in sources:
            mask |= _REG_BITS[reg]
        self[sources] = mask
        return mask


def resolve_indirect_targets(
        program: Program,
        indirect_targets: Optional[Iterable[int]] = None) -> Tuple[
            FrozenSet[int], bool]:
    """Return ``(targets, precise)`` for the program's indirect jumps."""
    if indirect_targets is not None:
        return frozenset(indirect_targets), True
    meta = program.metadata.get("jump_table_targets")
    if meta is not None:
        return frozenset(int(t) for t in meta), True
    return frozenset(), False


def build_cfg(program: Program,
              indirect_targets: Optional[Iterable[int]] = None) -> CFG:
    """Build the CFG of ``program``.

    ``indirect_targets`` optionally names the exact landing pads of
    ``JMP`` instructions; see the module docstring for the fallback
    chain.
    """
    targets, precise = resolve_indirect_targets(program, indirect_targets)
    instructions = program.instructions
    n = len(instructions)

    # Leaders: the entry, every branch target, every instruction after
    # a control transfer or halt, and the precise indirect targets.
    # With imprecise indirect flow the leader set itself is the
    # may-target set ("every block leader").
    leaders = {program.entry, 0}
    has_indirect = False
    # Return sites: the instruction after every CALL (a leader already,
    # since CALL transfers control).
    return_sites: List[int] = []
    for pc, instr in enumerate(instructions):
        info = instr.op.info
        if instr.target is not None:
            leaders.add(instr.target)
        if (info.is_control or info.is_halt) and pc + 1 < n:
            leaders.add(pc + 1)
            if info.is_call:
                return_sites.append(pc + 1)
        if info.is_indirect and not info.is_return:
            has_indirect = True
    leaders.update(target for target in targets if 0 <= target < n)
    starts = sorted(leaders)
    conservative: FrozenSet[int] = frozenset()
    if has_indirect and not precise:
        conservative = frozenset(starts)

    blocks: List[BasicBlock] = []
    block_of_pc: Dict[int, int] = {}
    source_masks = _SourceMasks()
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else n
        code = instructions[start:end]
        reads = [source_masks[instr.source_regs] for instr in code]
        writes = [_REG_BITS[instr.rd] if instr.writes_reg else 0
                  for instr in code]
        use = defs = 0
        for read, write in zip(reads, writes):
            use |= read & ~defs
            defs |= write
        blocks.append(BasicBlock(
            index=index, start=start, end=end, instructions=code,
            read_masks=reads, write_masks=writes, use_mask=use,
            def_mask=defs))
        block_of_pc.update(dict.fromkeys(range(start, end), index))

    for block in blocks:
        last_pc = block.end - 1
        last = block.instructions[-1]
        info = last.op.info
        succs: List[int] = []
        if info.is_halt:
            pass
        elif info.is_return:
            succs = [block_of_pc[s] for s in return_sites]
        elif info.is_indirect:  # JMP
            pads = targets if precise else conservative
            succs = [block_of_pc[t] for t in sorted(pads)
                     if 0 <= t < n]
            block.imprecise_indirect = not precise
        elif info.is_control:
            if last.target is not None:
                succs.append(block_of_pc[last.target])
            if info.is_conditional and last_pc + 1 < n:
                succs.append(block_of_pc[last_pc + 1])
            if info.is_conditional and last_pc + 1 >= n:
                block.falls_off_end = True
        else:  # plain fallthrough
            if last_pc + 1 < n:
                succs.append(block_of_pc[last_pc + 1])
            else:
                block.falls_off_end = True
        # Dedup while preserving order (conditional branch to pc+1 etc).
        seen = set()
        block.successors = [s for s in succs
                            if not (s in seen or seen.add(s))]

    for block in blocks:
        for succ in block.successors:
            blocks[succ].predecessors.append(block.index)

    return CFG(program=program, blocks=blocks,
               entry=block_of_pc[program.entry], block_of_pc=block_of_pc,
               conservative_indirect_targets=conservative)
