"""Dataflow edge cases: degenerate CFG shapes the solvers must survive.

Three families, each a known fixpoint-solver trap:

- a ``membar`` as the *first* instruction (an instruction with no
  register operands leading the entry block);
- a self-loop single-block CFG (``loop: br loop`` — the block is its
  own predecessor and successor, so a naive "process preds first"
  ordering never terminates or never starts);
- a join whose register is must-initialized on one predecessor and
  only may-initialized on the other (the must/may lattice split that
  drives A1 vs A2 findings).

Both the word-level solvers (:mod:`repro.analysis.dataflow`) and the
bit-level solvers behind the AVF analyzer
(:mod:`repro.analysis.valueflow`) are exercised on each shape.
"""

from repro.analysis.cfg import build_cfg
from repro.analysis.checks import verify_program
from repro.analysis.dataflow import (solve_initialized, solve_liveness)
from repro.analysis.valueflow import (solve_bit_liveness, solve_known_bits)
from repro.isa.assembler import assemble

ALL64 = (1 << 64) - 1


def findings_by_rule(report):
    table = {}
    for finding in report.findings:
        table.setdefault(finding.rule, []).append(finding)
    return table


class TestMembarFirst:
    SOURCE = """
        membar
        ldi  r1, 5
        halt
    """

    def test_cfg_and_word_solvers(self):
        program = assemble(self.SOURCE)
        cfg = build_cfg(program)
        must = solve_initialized(cfg, must=True)
        may = solve_initialized(cfg, must=False)
        # Entry facts are just the entry mask; membar defines nothing.
        assert must[cfg.entry] == 1  # r0 only
        assert may[cfg.entry] == 1
        live_in, _ = solve_liveness(cfg)
        assert live_in[cfg.entry] == 0  # membar neither uses nor defines

    def test_bit_solvers(self):
        program = assemble(self.SOURCE)
        cfg = build_cfg(program)
        known = solve_known_bits(cfg)
        assert known[cfg.entry] is not None
        liveness = solve_bit_liveness(cfg)
        # membar at pc 0: no register is live before it.
        assert liveness.live_before[0] == 0
        assert all(mask == 0 for mask in liveness.before[0])

    def test_no_spurious_findings(self):
        report = verify_program(assemble(self.SOURCE))
        assert "A1-uninit-read" not in findings_by_rule(report)


class TestSelfLoopSingleBlock:
    SOURCE = "loop: br loop\n"

    def test_cfg_shape(self):
        cfg = build_cfg(assemble(self.SOURCE))
        assert len(cfg.blocks) == 1
        block = cfg.blocks[cfg.entry]
        assert list(block.successors) == [cfg.entry]
        assert list(block.predecessors) == [cfg.entry]

    def test_word_solvers_terminate(self):
        cfg = build_cfg(assemble(self.SOURCE))
        must = solve_initialized(cfg, must=True)
        may = solve_initialized(cfg, must=False)
        # The back edge must not erode the entry facts: r0 stays
        # initialized, nothing else becomes initialized.
        assert must[cfg.entry] == 1
        assert may[cfg.entry] == 1
        live_in, live_out = solve_liveness(cfg)
        assert live_in[cfg.entry] == 0
        assert live_out[cfg.entry] == 0

    def test_bit_solvers_terminate(self):
        cfg = build_cfg(assemble(self.SOURCE))
        known = solve_known_bits(cfg)
        assert known[cfg.entry] is not None
        liveness = solve_bit_liveness(cfg)
        assert len(liveness.before) == 1

    # A one-block counting loop: the block is its own predecessor, and
    # r1 is both defined and used across the back edge.
    INDUCTION_SOURCE = """
        ldi r1, 10
    loop:
        addi r1, r1, -1
        bnez r1, loop
        halt
    """

    def test_self_loop_with_induction_keeps_state(self):
        cfg = build_cfg(assemble(self.INDUCTION_SOURCE))
        loop_blocks = [i for i, b in enumerate(cfg.blocks)
                       if i in b.successors or i in b.predecessors]
        assert loop_blocks  # the loop block self-links
        index = loop_blocks[0]
        must = solve_initialized(cfg, must=True)
        assert must[index] >> 1 & 1  # r1 initialized at loop entry
        live_in, _ = solve_liveness(cfg)
        assert live_in[index] >> 1 & 1  # r1 live around the back edge
        liveness = solve_bit_liveness(cfg)
        pc = cfg.blocks[index].start
        assert liveness.before[pc][1] != 0  # some r1 bits demanded


class TestMustMayJoinSplit:
    # r2 is written on the taken arm only: after the join it is
    # may-initialized (some path defines it) but not must-initialized
    # (the fall-through path does not).  The store makes r3 (and so the
    # add's operands) demanded by the backward bit-liveness pass.
    SOURCE = """
        ldi  r1, 1
        beqz r1, skip
        ldi  r2, 7
    skip:
        add  r3, r2, r1
        st   r0, 0x1000, r3
        halt
    """

    def _join_block(self, cfg):
        # The join block is the one starting at the 'add'.
        for index, block in enumerate(cfg.blocks):
            if len(block.predecessors) == 2:
                return index
        raise AssertionError("no two-predecessor join block found")

    def test_must_and_may_masks_diverge(self):
        cfg = build_cfg(assemble(self.SOURCE))
        join = self._join_block(cfg)
        must = solve_initialized(cfg, must=True)
        may = solve_initialized(cfg, must=False)
        assert not must[join] >> 2 & 1  # r2 NOT must-init at the join
        assert may[join] >> 2 & 1       # ...but may-init
        assert must[join] >> 1 & 1      # r1 is must-init on both arms

    def test_maybe_uninit_warning_not_error(self):
        report = verify_program(assemble(self.SOURCE))
        rules = findings_by_rule(report)
        assert "A2-maybe-uninit-read" in rules
        assert "A1-uninit-read" not in rules
        (finding,) = rules["A2-maybe-uninit-read"]
        assert "r2" in finding.message

    # Contrast case: a register no path defines is A1, not A2.
    NEVER_WRITTEN_SOURCE = """
        ldi  r1, 1
        add  r3, r2, r1
        halt
    """

    def test_never_written_is_error(self):
        report = verify_program(assemble(self.NEVER_WRITTEN_SOURCE))
        rules = findings_by_rule(report)
        assert "A1-uninit-read" in rules

    def test_bit_liveness_sees_both_arms(self):
        cfg = build_cfg(assemble(self.SOURCE))
        join = self._join_block(cfg)
        pc = cfg.blocks[join].start
        liveness = solve_bit_liveness(cfg)
        # The add at the join demands bits of both r1 and r2.
        assert liveness.before[pc][1] != 0
        assert liveness.before[pc][2] != 0


#: Every hand-written program above, by name (the reference-solver
#: comparison in test_valueflow_reference.py runs them all).
SOURCES = {
    "membar-first": TestMembarFirst.SOURCE,
    "self-loop": TestSelfLoopSingleBlock.SOURCE,
    "self-loop-induction": TestSelfLoopSingleBlock.INDUCTION_SOURCE,
    "must-may-join": TestMustMayJoinSplit.SOURCE,
    "never-written": TestMustMayJoinSplit.NEVER_WRITTEN_SOURCE,
}
