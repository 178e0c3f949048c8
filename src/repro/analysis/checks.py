"""Static verification checks for RISC-R programs.

Each check certifies one structural property that the sphere of
replication (paper Section 3) or the campaign engine depends on.  The
checks run over the CFG (:mod:`repro.analysis.cfg`) and the dataflow
fixpoints (:mod:`repro.analysis.dataflow`); results are
:class:`Finding` records with a stable rule id, a severity, and the
offending pc.

Severities
----------

``ERROR`` findings are definite defects — a read with *no* reaching
definition, a statically-known store outside the declared data segment,
control running off the end of the program, an unfenced store to a
declared shared segment.  The generator's validity gate refuses to emit
a program with errors.

``WARNING`` findings are possible defects or style hazards — a read
that is uninitialized on *some* path, a dead register write, an
unreachable block, a loop with no monotone induction variable.  They
fail ``analyze --strict`` but not the generator gate (synthetic
workloads legitimately contain, e.g., loops entered mid-body by
indirect jumps).

Program metadata keys the checks understand (all optional):

- ``data_segments``: list of ``[lo, hi)`` byte ranges stores may target.
- ``shared_segments``: list of ``[lo, hi)`` ranges that are
  cross-thread visible; stores into them must be fenced by a MEMBAR
  since the previous store.
- ``jump_table_targets``: exact indirect-jump landing pads (see cfg).
- ``runs_forever``: the program is a by-design non-terminating workload
  (the generator's synthetic benchmarks); disables the unbounded-loop
  and falls-off-end checks.
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.dataflow import (
    R0_ONLY,
    known_store_bases,
    solve_initialized,
    solve_liveness,
    solve_store_dirty,
)
from repro.isa.executor import to_unsigned
from repro.isa.instructions import ZERO_REG, Instruction, Op
from repro.isa.program import Program


class Severity(enum.IntEnum):
    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One verifier diagnostic, stably ordered by (pc, rule)."""

    rule: str
    severity: Severity
    message: str
    pc: Optional[int] = None

    def sort_key(self) -> Tuple[int, str]:
        return (self.pc if self.pc is not None else -1, self.rule)

    def __str__(self) -> str:
        where = f"pc {self.pc:4d}" if self.pc is not None else "program"
        return f"{self.severity.name:<7s} {self.rule:<18s} {where}: " \
               f"{self.message}"


#: Rule catalogue: id -> (severity, one-line description).
PROGRAM_RULES: Dict[str, Tuple[Severity, str]] = {
    "A1-uninit-read": (
        Severity.ERROR,
        "register read with no reaching definition on any path"),
    "A2-maybe-uninit-read": (
        Severity.WARNING,
        "register read uninitialized on at least one path"),
    "A3-dead-store": (
        Severity.WARNING,
        "register write never observed by any later read"),
    "A4-unreachable-block": (
        Severity.WARNING,
        "basic block unreachable from the program entry"),
    "A5-oob-store": (
        Severity.ERROR,
        "store to a statically-known address outside the declared "
        "data segment"),
    "A6-missing-membar": (
        Severity.ERROR,
        "store to a declared shared segment without a MEMBAR since the "
        "previous store"),
    "A7-unbounded-loop": (
        Severity.WARNING,
        "loop with no monotone induction toward an exit compare"),
    "A8-falls-off-end": (
        Severity.ERROR,
        "control flow can run past the last instruction"),
}


@dataclass
class AnalysisReport:
    """Findings for one program, plus the CFG they were derived from."""

    program: Program
    cfg: CFG
    findings: List[Finding] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def ok(self, strict: bool = False) -> bool:
        if strict:
            return not self.errors and not self.warnings
        return not self.errors

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


class ProgramVerificationError(ValueError):
    """Raised by the generator gate when a program has ERROR findings."""

    def __init__(self, report: AnalysisReport) -> None:
        self.report = report
        lines = "\n".join(str(f) for f in report.errors[:8])
        super().__init__(
            f"program {report.program.name!r} failed static verification "
            f"({len(report.errors)} error(s)):\n{lines}")

    def __reduce__(self):
        # Rebuilt from the report, not the message, so the error
        # survives the trip back from a worker process.
        return type(self), (self.report,)


# -- metadata helpers ------------------------------------------------------

def _segments(program: Program, key: str) -> Optional[List[Tuple[int, int]]]:
    raw = program.metadata.get(key)
    if raw is None:
        return None
    return [(int(lo), int(hi)) for lo, hi in raw]


def declared_data_segments(program: Program) -> Optional[
        List[Tuple[int, int]]]:
    """Byte ranges stores may legally target, or ``None`` if undeclared.

    Falls back to the span of ``initial_memory`` when the program ships
    initial data but no explicit declaration.
    """
    explicit = _segments(program, "data_segments")
    if explicit is not None:
        return explicit
    if program.initial_memory:
        lo = min(program.initial_memory)
        hi = max(program.initial_memory) + 8
        return [(lo, hi)]
    return None


def _in_segments(addr: int, segments: Sequence[Tuple[int, int]]) -> bool:
    return any(lo <= addr < hi for lo, hi in segments)


# -- individual checks -----------------------------------------------------

def _check_init_reads(cfg: CFG, entry_mask: int,
                      findings: List[Finding]) -> None:
    must_in = solve_initialized(cfg, entry_mask, must=True)
    may_in = solve_initialized(cfg, entry_mask, must=False)
    for index in cfg.reachable():
        block = cfg.blocks[index]
        must = must_in[index]
        may = may_in[index]
        for offset, (read, write) in enumerate(zip(block.read_masks,
                                                   block.write_masks)):
            if read & ~(must & may) & ~R0_ONLY:
                _report_init_reads(block.instructions[offset],
                                   block.start + offset, must, may, findings)
            must |= write
            may |= write


def _report_init_reads(instr: Instruction, pc: int, must: int, may: int,
                       findings: List[Finding]) -> None:
    """The findings of one instruction that reads a register outside the
    must- or may-initialized set, one per register, in source order."""
    reported = set()
    for reg in instr.source_regs:
        if reg == ZERO_REG or reg in reported:
            continue
        if not may >> reg & 1:
            reported.add(reg)
            findings.append(Finding(
                "A1-uninit-read", Severity.ERROR,
                f"r{reg} read by '{instr}' but never written on "
                f"any path from entry", pc))
        elif not must >> reg & 1:
            reported.add(reg)
            findings.append(Finding(
                "A2-maybe-uninit-read", Severity.WARNING,
                f"r{reg} read by '{instr}' is uninitialized on "
                f"at least one path from entry", pc))


def _check_dead_stores(cfg: CFG, findings: List[Finding]) -> None:
    _, live_out = solve_liveness(cfg)
    for index in cfg.reachable():
        block = cfg.blocks[index]
        live = live_out[index]
        reads, writes = block.read_masks, block.write_masks
        for offset in range(len(writes) - 1, -1, -1):
            write = writes[offset]
            if write:
                if not live & write:
                    instr = block.instructions[offset]
                    findings.append(Finding(
                        "A3-dead-store", Severity.WARNING,
                        f"result of '{instr}' (r{instr.rd}) is overwritten "
                        f"or discarded before any read",
                        block.start + offset))
                live &= ~write
            live |= reads[offset]


def _check_unreachable(cfg: CFG, findings: List[Finding]) -> None:
    reachable = set(cfg.reachable())
    for block in cfg.blocks:
        if block.index not in reachable:
            findings.append(Finding(
                "A4-unreachable-block", Severity.WARNING,
                f"instructions [{block.start}, {block.end}) are "
                f"unreachable from the entry", block.start))


def _check_stores(cfg: CFG, findings: List[Finding]) -> None:
    program = cfg.program
    data_segments = declared_data_segments(program)
    shared_segments = _segments(program, "shared_segments")
    if data_segments is None and shared_segments is None:
        return
    bases = known_store_bases(cfg)
    dirty_in = (solve_store_dirty(cfg) if shared_segments is not None
                else None)
    for index in cfg.reachable():
        block = cfg.blocks[index]
        dirty = dirty_in is not None and dirty_in[index]
        for pc, instr in zip(block.pcs(), block.instructions):
            info = instr.op.info
            if info.is_store:
                base = bases[pc]
                if base is not None:
                    addr = to_unsigned(base + instr.imm)
                    word = addr & ~7
                    if data_segments is not None and not _in_segments(
                            word, data_segments):
                        findings.append(Finding(
                            "A5-oob-store", Severity.ERROR,
                            f"'{instr}' writes {hex(addr)}, outside the "
                            f"declared data segment(s) "
                            f"{[(hex(lo), hex(hi)) for lo, hi in data_segments]}",
                            pc))
                    if (shared_segments is not None and dirty
                            and _in_segments(word, shared_segments)):
                        findings.append(Finding(
                            "A6-missing-membar", Severity.ERROR,
                            f"'{instr}' publishes to shared {hex(addr)} "
                            f"but a prior store is not fenced by a "
                            f"membar", pc))
                dirty = True
            elif info.is_membar:
                dirty = False


def _check_falls_off_end(cfg: CFG, findings: List[Finding]) -> None:
    if cfg.program.metadata.get("runs_forever"):
        return
    for index in cfg.reachable():
        block = cfg.blocks[index]
        if block.falls_off_end:
            findings.append(Finding(
                "A8-falls-off-end", Severity.ERROR,
                "control can run past the last instruction (no halt, "
                "branch, or return terminates this path)", block.end - 1))
        last = block.instructions[-1]
        if last.is_return and not block.successors:
            findings.append(Finding(
                "A8-falls-off-end", Severity.ERROR,
                f"'{last}' returns but the program contains no call "
                f"sites to return to", block.end - 1))


def _loop_has_induction(cfg: CFG, body: frozenset) -> bool:
    """Does some exit compare of the loop see a monotone counter?

    Accepts the two shapes the ISA can express: a counter stepped by a
    nonzero ``addi`` that is either (a) tested directly by the exit
    branch or (b) compared via ``cmplt``/``cmpeq`` into the branch's
    condition register.
    """
    stepped = set()  # registers r with 'addi r, r, imm!=0' inside the loop
    compares: Dict[int, set] = {}  # cond reg -> source regs of its compare
    for index in body:
        for instr in cfg.blocks[index].instructions:
            if (instr.op is Op.ADDI and instr.rd == instr.ra
                    and instr.imm != 0):
                stepped.add(instr.rd)
            if instr.op in (Op.CMPLT, Op.CMPEQ) and instr.writes_reg:
                compares.setdefault(instr.rd, set()).update(
                    instr.source_regs)
    for index in body:
        block = cfg.blocks[index]
        if not any(s not in body for s in block.successors):
            continue  # not an exiting block
        term = block.terminator
        if term is None or not term.is_conditional:
            continue
        cond = term.ra
        if cond in stepped:
            return True
        if compares.get(cond, set()) & stepped:
            return True
    return False


def _check_loops(cfg: CFG, findings: List[Finding]) -> None:
    if cfg.program.metadata.get("runs_forever"):
        return
    seen_heads = set()
    for tail, head in cfg.back_edges():
        if head in seen_heads:
            continue
        seen_heads.add(head)
        body = cfg.natural_loop(tail, head)
        exits = [b for b in body
                 if any(s not in body for s in cfg.blocks[b].successors)]
        halts = any(cfg.blocks[b].instructions[-1].is_halt
                    for b in body)
        head_pc = cfg.blocks[head].start
        if not exits and not halts:
            findings.append(Finding(
                "A7-unbounded-loop", Severity.WARNING,
                f"loop headed at pc {head_pc} has no exit edge",
                head_pc))
        elif not _loop_has_induction(cfg, body):
            findings.append(Finding(
                "A7-unbounded-loop", Severity.WARNING,
                f"loop headed at pc {head_pc} has no monotone induction "
                f"toward its exit compare", head_pc))


# -- entry point -----------------------------------------------------------

def verify_program(program: Program,
                   entry_initialized: Optional[int] = None,
                   checks: Optional[Sequence[str]] = None) -> AnalysisReport:
    """Run every program check (or the selected rule-id prefixes).

    ``entry_initialized`` is a register bitmask the caller asserts is
    defined at entry (``r0`` always is).  ``checks`` filters by rule-id
    prefix, e.g. ``["A1", "A5"]``.
    """
    cfg = build_cfg(program)
    entry_mask = R0_ONLY | (entry_initialized or 0)
    findings: List[Finding] = []

    def wanted(*rules: str) -> bool:
        if checks is None:
            return True
        return any(rule.startswith(prefix)
                   for rule in rules for prefix in checks)

    if wanted("A1", "A2"):
        _check_init_reads(cfg, entry_mask, findings)
    if wanted("A3"):
        _check_dead_stores(cfg, findings)
    if wanted("A4"):
        _check_unreachable(cfg, findings)
    if wanted("A5", "A6"):
        _check_stores(cfg, findings)
    if wanted("A8"):
        _check_falls_off_end(cfg, findings)
    if wanted("A7"):
        _check_loops(cfg, findings)

    findings.sort(key=Finding.sort_key)
    return AnalysisReport(program=program, cfg=cfg, findings=findings)


def gate_program(program: Program,
                 entry_initialized: Optional[int] = None) -> Program:
    """The generator's mandatory validity gate.

    Verifies ``program`` and raises :class:`ProgramVerificationError` on
    any ERROR-severity finding.  Returns the program unchanged on
    success so it can be used in expression position.
    """
    report = verify_program(program, entry_initialized=entry_initialized)
    if report.errors:
        raise ProgramVerificationError(report)
    return program
