"""CFG construction: leaders, edges, indirect flow, loops, visit order."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from test_analysis_dataflow_edges import SOURCES as EDGE_SOURCES
from test_valueflow import SOURCES as VALUEFLOW_SOURCES
from test_valueflow_reference import random_program

from repro.analysis import checks
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import (known_store_bases, solve_constants,
                                     solve_initialized, solve_liveness,
                                     solve_store_dirty)
from repro.analysis.valueflow import solve_bit_liveness, solve_known_bits
from repro.avf.analyzer import ProgramAVF
from repro.isa.assembler import assemble
from repro.isa.generator import generate_benchmark
from repro.isa.instructions import Instruction, Op
from repro.isa.profiles import SPEC95_NAMES
from repro.isa.program import Program


def blocks_of(cfg):
    return [(b.start, b.end, tuple(b.successors)) for b in cfg.blocks]


class TestBasicBlocks:
    def test_straight_line_is_one_block(self):
        cfg = build_cfg(assemble("ldi r1, 1\nadd r2, r1, r1\nhalt"))
        assert len(cfg.blocks) == 1
        assert cfg.blocks[0].successors == []

    def test_conditional_branch_splits_three_ways(self):
        cfg = build_cfg(assemble("""
            ldi r1, 2
        top:
            addi r1, r1, -1
            bnez r1, top
            halt
        """))
        # [entry], [top..branch], [halt]
        assert len(cfg.blocks) == 3
        entry, loop, exit_block = cfg.blocks
        assert entry.successors == [loop.index]
        assert sorted(loop.successors) == sorted([loop.index,
                                                  exit_block.index])
        assert exit_block.successors == []
        assert loop.predecessors.count(entry.index) == 1

    def test_entry_block_first_reachable(self):
        cfg = build_cfg(assemble("br end\nnop\nend:\nhalt"))
        order = cfg.reachable()
        assert order[0] == cfg.entry
        # 'nop' block is not reachable.
        nop_block = cfg.block_of_pc[1]
        assert nop_block not in order

    def test_call_and_ret_edges(self):
        cfg = build_cfg(assemble("""
            call r30, sub
            halt
        sub:
            ret r30
        """))
        call_block = cfg.block_at(0)
        sub_block = cfg.block_at(2)
        halt_block = cfg.block_at(1)
        assert call_block.successors == [sub_block.index]
        # RET returns to the instruction after every CALL.
        assert sub_block.successors == [halt_block.index]


class TestIndirectFlow:
    def _jmp_program(self, metadata=None):
        program = Program(
            name="jmp",
            instructions=[
                Instruction(Op.LDI, rd=1, imm=3),
                Instruction(Op.JMP, ra=1),
                Instruction(Op.HALT),
                Instruction(Op.HALT),
            ])
        if metadata:
            program.metadata.update(metadata)
        return program

    def test_unknown_indirect_targets_all_leaders(self):
        cfg = build_cfg(self._jmp_program())
        jmp_block = cfg.block_at(1)
        assert jmp_block.imprecise_indirect
        assert cfg.conservative_indirect_targets
        # Every leader is a may-successor.
        assert set(jmp_block.successors) == set(
            cfg.block_of_pc[t] for t in cfg.conservative_indirect_targets)

    def test_metadata_jump_table_is_precise(self):
        cfg = build_cfg(self._jmp_program({"jump_table_targets": [3]}))
        jmp_block = cfg.block_at(1)
        assert not jmp_block.imprecise_indirect
        assert jmp_block.successors == [cfg.block_of_pc[3]]

    def test_explicit_targets_override(self):
        cfg = build_cfg(self._jmp_program(), indirect_targets=[2])
        jmp_block = cfg.block_at(1)
        assert jmp_block.successors == [cfg.block_of_pc[2]]


class TestLoops:
    def test_back_edge_found(self):
        cfg = build_cfg(assemble("""
            ldi r1, 4
        top:
            addi r1, r1, -1
            bnez r1, top
            halt
        """))
        edges = cfg.back_edges()
        assert len(edges) == 1
        tail, head = edges[0]
        assert cfg.blocks[head].start == 1

    def test_natural_loop_body(self):
        cfg = build_cfg(assemble("""
            ldi r1, 4
        top:
            addi r1, r1, -1
            beqz r1, out
            br top
        out:
            halt
        """))
        (tail, head), = cfg.back_edges()
        body = cfg.natural_loop(tail, head)
        starts = sorted(cfg.blocks[b].start for b in body)
        assert starts == [1, 3]  # the addi/beqz block and the br block

    def test_deep_cfg_no_recursion_error(self):
        # 3000 alternating conditional branches; iterative DFS must cope.
        lines = ["ldi r1, 1"]
        for _ in range(3000):
            lines.append("addi r1, r1, -1")
            # Target the instruction after this bnez (a forward skip).
            lines.append(f"bnez r1, {len(lines) + 1}")
        lines.append("halt")
        cfg = build_cfg(assemble("\n".join(lines)))
        assert cfg.back_edges() == []
        assert len(cfg.reachable()) == len(cfg.blocks)


# -- visit order -------------------------------------------------------------

def old_discovery_order(cfg):
    """The reachable blocks as the walk first meets them: the order
    ``CFG.reachable()`` returned before it returned reverse postorder."""
    seen = [False] * len(cfg.blocks)
    order = []
    stack = [cfg.entry]
    while stack:
        index = stack.pop()
        if seen[index]:
            continue
        seen[index] = True
        order.append(index)
        for succ in reversed(cfg.blocks[index].successors):
            if not seen[succ]:
                stack.append(succ)
    return order


def old_back_edges(cfg):
    """``CFG.back_edges()`` as it stood before the walk was cached,
    verbatim: the A7 loop check reads the first back edge into each
    head, so the order must not change."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = [WHITE] * len(cfg.blocks)
    edges = []
    stack = [(cfg.entry, 0)]
    color[cfg.entry] = GREY
    while stack:
        node, child = stack[-1]
        succs = cfg.blocks[node].successors
        if child < len(succs):
            stack[-1] = (node, child + 1)
            succ = succs[child]
            if color[succ] == GREY:
                edges.append((node, succ))
            elif color[succ] == WHITE:
                color[succ] = GREY
                stack.append((succ, 0))
        else:
            color[node] = BLACK
            stack.pop()
    return edges


def profile_cfgs():
    return [build_cfg(generate_benchmark(name, seed=seed, verify=False))
            for seed in (0, 3) for name in SPEC95_NAMES]


def handwritten_cfgs():
    return [build_cfg(assemble(source))
            for source in {**VALUEFLOW_SOURCES, **EDGE_SOURCES}.values()]


def assert_walk_properties(cfg):
    walk = cfg.depth_first()
    order = walk.order
    assert order[0] == cfg.entry
    assert len(set(order)) == len(order)  # each block once
    assert sorted(order) == sorted(old_discovery_order(cfg))
    assert cfg.reachable() == order
    for index, block in enumerate(cfg.blocks):
        assert walk.rank[index] == (order.index(index) if index in order
                                    else len(order))
    back_edges = set(walk.back_edges)
    for index in order:
        for succ in cfg.blocks[index].successors:
            if (index, succ) not in back_edges:
                assert walk.rank[index] < walk.rank[succ]
    assert cfg.back_edges() == old_back_edges(cfg)


class TestVisitOrder:
    def test_profile_programs(self):
        for cfg in profile_cfgs():
            assert_walk_properties(cfg)

    def test_handwritten_programs(self):
        for cfg in handwritten_cfgs():
            assert_walk_properties(cfg)

    @settings(max_examples=200, deadline=None)
    @given(random_program())
    def test_random_programs(self, program):
        assert_walk_properties(build_cfg(program))

    def test_walk_is_computed_once(self):
        cfg = build_cfg(assemble(VALUEFLOW_SOURCES["counted-loop"]))
        assert cfg.depth_first() is cfg.depth_first()
        assert cfg.reachable() is cfg.reachable()

    def test_counted_loop(self):
        cfg = build_cfg(assemble("""
            ldi r1, 4
        top:
            addi r1, r1, -1
            bnez r1, top
            halt
        """))
        entry, loop, exit_block = (cfg.block_at(0).index,
                                   cfg.block_at(1).index,
                                   cfg.block_at(3).index)
        assert cfg.reachable() == (entry, loop, exit_block)


def every_solution(cfg):
    """What every solver over ``cfg`` returns, and what the verifier and
    the AVF analyzer report from them."""
    known = solve_known_bits(cfg)
    liveness = solve_bit_liveness(cfg, known)
    avf = ProgramAVF(cfg.program, steps=200, cfg=cfg, bitlive=liveness)
    return {
        "must": solve_initialized(cfg, must=True),
        "may": solve_initialized(cfg, must=False),
        "liveness": solve_liveness(cfg),
        "constants": solve_constants(cfg),
        "store bases": known_store_bases(cfg),
        "store dirty": solve_store_dirty(cfg),
        "known bits": known,
        "before": [list(row) for row in liveness.before],
        "after": [list(row) for row in liveness.after],
        "live before": liveness.live_before,
        "defined later": liveness.defined_later,
        "findings": verify_cfg(cfg),
        "avf": avf.summary().to_dict(),
    }


def verify_cfg(cfg):
    """``verify_program``'s findings, checked on this very CFG object."""
    with mock.patch.object(checks, "build_cfg", lambda program: cfg):
        return checks.verify_program(cfg.program).findings


def with_order(cfg, order):
    """Override ``cfg``'s cached walk so every solver takes ``order`` as
    its priority; the back edges stay the walk's."""
    rank = [len(order)] * len(cfg.blocks)
    for position, index in enumerate(order):
        rank[index] = position
    cfg._walk = cfg.depth_first()._replace(order=tuple(order),
                                           rank=tuple(rank))


def test_solutions_do_not_depend_on_the_visit_order():
    """Every solver is a monotone framework, so its fixpoint is the same
    whichever block it visits first: reverse postorder, postorder (the
    worst order for a forward problem) or a shuffle."""
    rng = random.Random(11)
    for cfg in profile_cfgs()[::3] + handwritten_cfgs():
        expected = every_solution(cfg)
        order = list(cfg.reachable())
        shuffled = order[:]
        rng.shuffle(shuffled)
        for priority in (order[::-1], shuffled):
            with_order(cfg, priority)
            assert every_solution(cfg) == expected, cfg.program.name
