"""Shared rule registry for every source-level analysis tool.

One catalogue, one finding type, one suppression grammar.  The
simulator linter (:mod:`repro.analysis.simlint`, families S1–S4), the
lockset analyzer (:mod:`repro.verify.lockset`, family S5), and the
interprocedural flow engine (:mod:`repro.analysis.flow`, families
S6–S7) all register here, so ``repro lint --rules`` and
``repro verify --rules`` render the identical S1–S7 table and every
tool honours the same ``# simlint:`` pragmas.

The suppression table tracks *usage*: a pragma is "used" once it
actually swallows a finding.  Pragmas that suppress nothing are stale
and reported as ``U001`` by :func:`unused_suppressions` — restricted
to the rule families the current run evaluated, so a lockset pragma is
never called stale by a run that did not execute the lockset engine.
"""

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9,\s]+)")
_SUPPRESS_FILE_RE = re.compile(
    r"#\s*simlint:\s*disable-file=([A-Za-z0-9,\s]+)")


@dataclass(frozen=True)
class LintRule:
    id: str
    severity: str  # "error" | "warning"
    engine: str    # "simlint" | "lockset" | "flow"
    summary: str


LINT_RULES: Dict[str, LintRule] = {rule.id: rule for rule in [
    # -- S1 determinism (simlint) -------------------------------------
    LintRule("S101", "error", "simlint",
             "host 'random' used outside repro.util.rng — every "
             "stochastic choice must flow through DeterministicRng"),
    LintRule("S102", "error", "simlint",
             "wall-clock source in a cycle-path layer — simulated time "
             "must be a pure function of the configuration"),
    LintRule("S103", "warning", "simlint",
             "unsorted set consumed in an order-sensitive position — "
             "wrap in sorted() so output is byte-deterministic"),
    LintRule("S104", "warning", "simlint",
             "dict view (.keys()/.values()) formatted into a message "
             "without sorted() — insertion order leaks construction "
             "history into output"),
    # -- S2 sphere-of-replication layering (simlint) ------------------
    LintRule("S201", "error", "simlint",
             "sphere-layering violation: layers inside the sphere of "
             "replication must not import repro.core"),
    LintRule("S202", "error", "simlint",
             "repro.util must be a leaf package (no repro.* imports)"),
    # -- S3 campaign pickle-safety (simlint) --------------------------
    LintRule("S301", "warning", "simlint",
             "lambda handed to a process pool — workers must receive "
             "module-level callables to unpickle"),
    LintRule("S302", "warning", "simlint",
             "wire dataclass is nested or has unstable (set-typed) "
             "fields — it cannot cross the process pool safely"),
    # -- S4 retry hygiene (simlint) -----------------------------------
    LintRule("S401", "warning", "simlint",
             "unbounded retry loop — a while-True except handler that "
             "swallows the error without an attempt cap retries "
             "forever when the fault is permanent"),
    # -- S5 lock discipline (repro.verify.lockset) --------------------
    LintRule("S501", "error", "lockset",
             "shared mutable attribute accessed outside its guarding "
             "lock — declare the guard in the class docstring "
             "('Concurrency:' block) or take the lock"),
    LintRule("S502", "error", "lockset",
             "lock acquisition-order cycle — two code paths take the "
             "same locks in opposite orders and can deadlock"),
    LintRule("S503", "warning", "lockset",
             "blocking call while holding a lock — waits, joins, "
             "sleeps, and socket/queue reads under a lock stall every "
             "other thread contending for it"),
    # -- S6 async safety (repro.analysis.flow) ------------------------
    LintRule("S601", "error", "flow",
             "blocking call transitively reachable from an async def "
             "without an executor hop — one time.sleep or disk read "
             "on the event loop stalls every connection"),
    LintRule("S602", "error", "flow",
             "coroutine called but never awaited or scheduled — the "
             "call builds a coroutine object and discards it; the "
             "body never runs"),
    LintRule("S603", "error", "flow",
             "asyncio loop or primitive touched from code that runs "
             "off-loop (executor / thread target) — loop state is not "
             "thread-safe; use call_soon_threadsafe or a threading "
             "primitive"),
    # -- S7 resource safety (repro.analysis.flow) ---------------------
    LintRule("S701", "warning", "flow",
             "file/socket/tempfile acquired but not released on an "
             "exception path — wrap it in 'with', close it in a "
             "finally, or transfer ownership explicitly"),
    LintRule("S702", "warning", "flow",
             "chaos-instrumented temp-file write without exception-"
             "path cleanup — an injected fault here leaks the temp "
             "file the soak gate hunts for"),
    # -- U0 suppression hygiene (lint orchestration) ------------------
    LintRule("U001", "warning", "simlint",
             "unused suppression — this '# simlint: disable' pragma "
             "suppresses nothing; delete it so audited exceptions "
             "cannot silently rot"),
]}


@dataclass(frozen=True)
class LintFinding:
    rule: str
    path: str  # repro-package-relative, posix separators
    line: int
    message: str

    @property
    def severity(self) -> str:
        return LINT_RULES[self.rule].severity

    def sort_key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.rule)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} " \
               f"[{self.severity}] {self.message}"


def _parse_rules(group: str) -> Set[str]:
    return {part.strip() for part in group.split(",") if part.strip()}


def _comment_lines(source: str) -> List[Tuple[int, str]]:
    """(line, text) of every ``#`` comment, via the tokenizer.

    Only real comment tokens carry pragmas — a docstring *documenting*
    ``# simlint: disable=…`` must neither suppress anything nor be
    reported stale by U001.  Sources the tokenizer rejects fall back
    to a plain line scan (the AST parse will complain about them
    louder anyway).
    """
    import io
    import tokenize
    try:
        return [(tok.start[0], tok.string)
                for tok in tokenize.generate_tokens(
                    io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return list(enumerate(source.splitlines(), start=1))


@dataclass
class SuppressionTable:
    """Per-line and file-wide ``# simlint:`` pragmas of one module.

    Shared by the simulator linter, the flow engine, and the lockset
    analyzer so every tool honours the same audited exceptions.
    ``active`` marks the consulted pragma as used when (and only when)
    it actually suppresses a finding, which is what U001 audits.
    """

    lines: Dict[int, Set[str]]
    file_wide: Set[str]
    #: disable-file= pragma line per rule (for U001 reporting).
    file_wide_lines: Dict[str, int] = field(default_factory=dict)
    used_lines: Set[Tuple[int, str]] = field(default_factory=set)
    used_file: Set[str] = field(default_factory=set)

    @classmethod
    def from_source(cls, source: str) -> "SuppressionTable":
        lines: Dict[int, Set[str]] = {}
        file_wide: Set[str] = set()
        file_wide_lines: Dict[str, int] = {}
        for line_no, comment in _comment_lines(source):
            match = _SUPPRESS_FILE_RE.search(comment)
            if match:
                for rule in _parse_rules(match.group(1)):
                    file_wide.add(rule)
                    file_wide_lines.setdefault(rule, line_no)
                continue  # disable-file= is not also a line pragma
            match = _SUPPRESS_RE.search(comment)
            if match:
                lines[line_no] = _parse_rules(match.group(1))
        return cls(lines=lines, file_wide=file_wide,
                   file_wide_lines=file_wide_lines)

    def active(self, rule: str, line: int) -> bool:
        """Is ``rule`` suppressed at ``line``?  Marks the pragma used."""
        if rule in self.file_wide:
            self.used_file.add(rule)
            return True
        if rule in self.lines.get(line, ()):
            self.used_lines.add((line, rule))
            return True
        return False


def unused_suppressions(rel_path: str, table: SuppressionTable,
                        evaluated: Iterable[str]) -> List[LintFinding]:
    """U001 findings for pragmas that suppressed nothing.

    ``evaluated`` lists the rule-id prefixes the run actually checked
    (e.g. ``["S1", "S2", "S3", "S4", "S6", "S7"]`` for a full lint);
    a pragma naming a rule outside them is skipped, not judged —
    except ids absent from the catalogue entirely, which can never
    suppress anything and are always stale.
    """
    prefixes = tuple(evaluated)

    def judged(rule: str) -> bool:
        if rule not in LINT_RULES:
            return True  # a typo'd id is stale by construction
        return any(rule.startswith(p) for p in prefixes)

    findings: List[LintFinding] = []
    for line, rules in sorted(table.lines.items()):
        for rule in sorted(rules):
            if not judged(rule) or (line, rule) in table.used_lines:
                continue
            if table.active("U001", line):
                continue
            findings.append(LintFinding(
                "U001", rel_path, line,
                f"suppression 'disable={rule}' matches no finding on "
                f"this line; remove the stale pragma"))
    for rule in sorted(table.file_wide):
        if rule == "U001":
            continue  # a file-wide U001 waiver is itself meta
        if not judged(rule) or rule in table.used_file:
            continue
        line = table.file_wide_lines.get(rule, 1)
        if table.active("U001", line):
            continue
        findings.append(LintFinding(
            "U001", rel_path, line,
            f"suppression 'disable-file={rule}' matches no finding in "
            f"this module; remove the stale pragma"))
    return findings
