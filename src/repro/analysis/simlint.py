"""AST-based invariant linter for the simulator's own source tree.

The campaign engine (PR 1) replays 100k-injection campaigns from
``(spec, seed)`` alone and the recovery layer (PR 2) compares state
fingerprints byte-for-byte across processes; both silently break if the
simulator picks up a nondeterministic input, leaks the sphere layering,
or ships a wire type the process pool cannot round-trip.  This linter
enforces those invariants *statically*, before a campaign burns CPU on
a bad build.

Rule families (see ``docs/ANALYSIS.md`` for the full catalogue):

- **S1 determinism** — S101 no unseeded ``random`` outside the blessed
  ``repro.util.rng`` wrapper; S102 no wall-clock reads in cycle-path
  layers; S103 no order-sensitive consumption of unsorted sets; S104
  no dict views formatted into messages without ``sorted(...)``.
- **S2 sphere-of-replication layering** — S201 the layers *inside* the
  sphere (pipeline, predictors, memory, isa, util) never import the
  sphere machinery in ``repro.core``; S202 ``repro.util`` is a leaf.
- **S3 campaign pickle-safety** — S301 no lambdas handed to process
  pools; S302 wire dataclasses are module-level with stable,
  deterministic field types.
- **S4 retry hygiene** — S401 no unbounded retry loops: a
  constant-true ``while`` whose exception handler swallows the error
  without tracking an attempt budget spins forever once the fault
  turns out to be permanent (see ``docs/CHAOS.md``).

This module is also the orchestrator: :func:`lint_package` parses each
module once, runs the intraprocedural rules here, hands the same trees
and suppression tables to the interprocedural flow engine
(:mod:`repro.analysis.flow`, families S6–S7), and finally audits the
pragmas themselves (U001, a ``disable=`` that suppressed nothing).
The rule catalogue, finding type, and suppression grammar live in
:mod:`repro.analysis.registry`, shared with the lockset analyzer
(S501–S503 in :mod:`repro.verify.lockset`); the names re-exported here
(``LintRule``, ``LINT_RULES``, ``LintFinding``, ``SuppressionTable``)
are aliases of the registry's.

Suppression: append ``# simlint: disable=S101`` (comma-separate for
several rules) to the offending line, or put
``# simlint: disable-file=S501`` on a line of its own anywhere in the
module to waive rules file-wide (module-level waivers beat a pragma on
every line).  Every suppression is an audited exception, greppable by
rule id — and audited mechanically: one that stops matching any
finding is reported as U001 until it is deleted.

Only the stdlib :mod:`ast` is used; no third-party linter frameworks.
"""

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.registry import (LINT_RULES, LintFinding, LintRule,
                                     SuppressionTable,
                                     unused_suppressions)

__all__ = [
    "LINT_RULES", "LintFinding", "LintRule", "SuppressionTable",
    "lint_package", "lint_source", "package_root", "iter_package_files",
]

#: Engine name -> rule-id prefixes it evaluates (used both to prune a
#: run with ``--only`` and to scope the U001 staleness audit).
ENGINE_PREFIXES: Dict[str, Tuple[str, ...]] = {
    "simlint": ("S1", "S2", "S3", "S4"),
    "flow": ("S6", "S7"),
    "usage": ("U0",),
}

#: Layers that execute inside the simulated machine's cycle loop; these
#: may never observe wall-clock time or host RNG state.
CYCLE_LAYERS = ("core", "pipeline", "predictors", "memory", "isa", "util")

#: Layers inside the sphere of replication (paper Figure 1): structures
#: that are *replicated or compared* must not know about the comparator.
SPHERE_INNER_LAYERS = ("pipeline", "predictors", "memory", "isa", "util")

#: Modules whose dataclasses cross the campaign process pool.
WIRE_MODULE_PATTERNS = (
    re.compile(r"^campaign/"),
    re.compile(r"^core/faults\.py$"),
    re.compile(r"^core/metrics\.py$"),
    re.compile(r"^core/config\.py$"),
)

#: The single module allowed to touch the host ``random`` module.
RNG_HOME = "util/rng.py"

_POOL_METHODS = {"submit", "map", "imap", "imap_unordered", "apply",
                 "apply_async", "starmap", "starmap_async"}
_CLOCK_ATTRS = {"time", "time_ns", "perf_counter", "perf_counter_ns",
                "monotonic", "monotonic_ns", "process_time"}


def _is_set_expr(node: ast.AST) -> bool:
    """Does ``node`` syntactically produce a set with host-hash order?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitAnd, ast.BitOr, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_dict_view_expr(node: ast.AST) -> bool:
    """Is ``node`` a bare ``<expr>.keys()`` / ``<expr>.values()`` call?

    Dict views iterate in *insertion* order, which is deterministic for
    one construction path but silently changes whenever the producing
    code is reordered — exactly the instability that must not leak into
    campaign records or error messages.  ``sorted(d.keys())`` is the
    stable form (and, being a ``sorted`` call, is not a view any more,
    so it naturally escapes this predicate).
    """
    return (isinstance(node, ast.Call)
            and not node.args and not node.keywords
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("keys", "values"))


def _is_constant_true(node: ast.AST) -> bool:
    """Is ``node`` a test that can never become false (``while True:``)?"""
    return isinstance(node, ast.Constant) and bool(node.value) is True


def _is_benign_retry_call(node: ast.Call) -> bool:
    """Sleeping or logging inside a handler doesn't bound the retry."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("sleep", "debug", "info", "warning",
                             "error", "exception", "critical", "log")
    return isinstance(func, ast.Name) and func.id == "print"


def _handler_swallows(handler: ast.ExceptHandler) -> bool:
    """Does this handler retry without any visible attempt bookkeeping?

    A handler that re-raises, breaks, or returns escapes the loop; one
    that assigns anything (``attempt += 1``, ``pool = rebuild()``) is
    presumed to be tracking a budget the loop head or a later check
    consumes.  Only handlers whose every statement is pure wait-and-spin
    (``pass`` / ``continue`` / ``time.sleep`` / logging) are flagged —
    they turn a permanent fault into an infinite loop.
    """
    for stmt in handler.body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, ast.Constant):  # docstring-style literal
                continue
            if isinstance(value, ast.Call) and _is_benign_retry_call(value):
                continue
        return False
    return True


def _tries_in_loop(body: Sequence[ast.stmt]) -> Iterable[ast.Try]:
    """Try statements lexically inside a loop body, skipping nested
    function/class scopes (their loops are judged on their own)."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Try):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _annotation_mentions_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in (
                "set", "Set", "frozenset", "FrozenSet", "MutableSet"):
            return True
        if isinstance(child, ast.Attribute) and child.attr in (
                "Set", "FrozenSet", "MutableSet"):
            return True
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            if re.search(r"\b(Set|FrozenSet|set|frozenset)\b", child.value):
                return True
    return False


class _ModuleLinter(ast.NodeVisitor):
    """Runs every applicable rule over one module's AST."""

    def __init__(self, rel_path: str, source: str,
                 tree: Optional[ast.Module] = None,
                 table: Optional[SuppressionTable] = None) -> None:
        self.rel = rel_path  # e.g. "pipeline/core.py"
        self.layer = rel_path.split("/", 1)[0] if "/" in rel_path else ""
        # A caller orchestrating several engines shares one parse and
        # one suppression table (usage tracking feeds U001) per module.
        self.suppress = table if table is not None \
            else SuppressionTable.from_source(source)
        self.findings: List[LintFinding] = []
        self.is_wire = any(p.search(rel_path) for p in WIRE_MODULE_PATTERNS)
        self._tree = tree if tree is not None \
            else ast.parse(source, filename=rel_path)

    # -- plumbing ----------------------------------------------------
    def run(self) -> List[LintFinding]:
        self.visit(self._tree)
        self._check_wire_dataclasses(self._tree)
        return self.findings

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if self.suppress.active(rule, line):  # audited exception
            return
        self.findings.append(LintFinding(rule, self.rel, line, message))

    # -- S1 determinism ----------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        self._check_import(node, module,
                           names=[a.name for a in node.names])
        self.generic_visit(node)

    def _check_import(self, node: ast.AST, module: str,
                      names: Sequence[str] = ()) -> None:
        root = module.split(".", 1)[0]
        if root == "random" and self.rel != RNG_HOME:
            self.report("S101", node,
                        f"import of 'random' in {self.rel}; use "
                        f"repro.util.rng.DeterministicRng instead")
        if self.layer in CYCLE_LAYERS and root in ("time", "datetime"):
            clocky = (not names
                      or any(n in _CLOCK_ATTRS or n in ("datetime", "date")
                             for n in names))
            if clocky:
                self.report("S102", node,
                            f"'{module}' imported in cycle-path layer "
                            f"'{self.layer}/'")
        if module.startswith("repro"):
            self._check_layering(node, module, names)

    # -- S2 layering -------------------------------------------------
    def _check_layering(self, node: ast.AST, module: str,
                        names: Sequence[str]) -> None:
        if self.layer == "util":
            if module != "repro.util" and not module.startswith("repro.util."):
                self.report("S202", node,
                            f"repro.util imports {module}; util must "
                            f"stay a leaf package")
            return
        if self.layer in SPHERE_INNER_LAYERS:
            if module == "repro.core" or module.startswith("repro.core."):
                self.report("S201", node,
                            f"layer '{self.layer}/' (inside the sphere "
                            f"of replication) imports {module}; the "
                            f"sphere machinery must stay above it")

    # -- S1 determinism: wall clock / unsorted sets --------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (self.layer in CYCLE_LAYERS
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
                and node.attr in _CLOCK_ATTRS):
            self.report("S102", node,
                        f"time.{node.attr}() read in cycle-path layer "
                        f"'{self.layer}/'")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self.report("S103", node,
                        "iteration over an unsorted set; wrap the "
                        "iterable in sorted()")
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Binding a set *algebra* result (difference/union/...) is the
        # tell-tale "collect then report" idiom whose order leaks into
        # error messages and logs; `x = sorted(set(a) - b)` is the
        # deterministic-by-construction form.  Plain `seen = set()`
        # membership sets are fine and not flagged.
        if isinstance(node.value, ast.BinOp) and _is_set_expr(node.value):
            self.report("S103", node,
                        "binding a raw set-algebra result; bind "
                        "sorted(...) instead so every later consumer "
                        "is order-stable")
        self.generic_visit(node)

    def visit_FormattedValue(self, node: ast.FormattedValue) -> None:
        if _is_set_expr(node.value):
            self.report("S103", node,
                        "formatting an unsorted set into a string; "
                        "wrap it in sorted()")
        if _is_dict_view_expr(node.value):
            self.report("S104", node,
                        "formatting a dict view into a string; wrap "
                        "it in sorted() so the message is stable "
                        "under producer reordering")
        self.generic_visit(node)

    # -- S4 retry hygiene ---------------------------------------------
    def visit_While(self, node: ast.While) -> None:
        if _is_constant_true(node.test):
            for try_node in _tries_in_loop(node.body):
                for handler in try_node.handlers:
                    if _handler_swallows(handler):
                        self.report(
                            "S401", handler,
                            "except handler inside `while True` "
                            "swallows the error and retries without "
                            "an attempt cap; bound it (`for attempt "
                            "in range(n)`) or count failures")
        self.generic_visit(node)

    # -- S3 pickle safety ---------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _POOL_METHODS:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Lambda):
                    self.report("S301", arg,
                                f".{func.attr}(lambda ...) cannot cross "
                                f"a process pool; pass a module-level "
                                f"function")
        if (isinstance(func, ast.Attribute) and func.attr == "join"
                and len(node.args) == 1
                and _is_dict_view_expr(node.args[0])):
            self.report("S104", node,
                        "joining a dict view into a string; wrap it "
                        "in sorted() so the message is stable under "
                        "producer reordering")
        self.generic_visit(node)

    def _check_wire_dataclasses(self, tree: ast.Module) -> None:
        if not self.is_wire:
            return
        top_level = {id(stmt) for stmt in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _is_dataclass_decorated(node):
                continue
            if id(node) not in top_level:
                self.report("S302", node,
                            f"dataclass {node.name!r} is not "
                            f"module-level; nested classes cannot be "
                            f"pickled by the campaign pool")
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        _annotation_mentions_set(stmt.annotation):
                    name = getattr(stmt.target, "id", "?")
                    self.report("S302", stmt,
                                f"field {node.name}.{name} is set-typed; "
                                f"wire formats need deterministic "
                                f"iteration order (use a sorted tuple)")
                if isinstance(stmt, (ast.AnnAssign, ast.Assign)):
                    value = stmt.value
                    if isinstance(value, ast.Call):
                        for kw in value.keywords:
                            if (kw.arg == "default_factory"
                                    and isinstance(kw.value, ast.Name)
                                    and kw.value.id in ("set", "frozenset")):
                                self.report(
                                    "S302", stmt,
                                    f"dataclass {node.name!r} uses "
                                    f"default_factory={kw.value.id}; "
                                    f"wire fields must be order-stable")


# -- public API ------------------------------------------------------------

def lint_source(source: str, rel_path: str) -> List[LintFinding]:
    """Lint one module given its repro-package-relative path."""
    return _ModuleLinter(rel_path, source).run()


def package_root() -> Path:
    """Filesystem directory of the installed ``repro`` package."""
    import repro
    return Path(repro.__file__).resolve().parent


def iter_package_files(root: Optional[Path] = None) -> Iterable[
        Tuple[Path, str]]:
    base = root or package_root()
    for path in sorted(base.rglob("*.py")):
        rel = path.relative_to(base).as_posix()
        yield path, rel


def lint_package(root: Optional[Path] = None,
                 select: Optional[Sequence[str]] = None,
                 engines: Optional[Sequence[str]] = None
                 ) -> List[LintFinding]:
    """Lint every module of the repro package (or another tree).

    Each module is parsed once; the tree and the (usage-tracked)
    suppression table are shared between the intraprocedural rules
    here and the interprocedural flow engine, and the tables are
    audited for stale pragmas (U001) at the end.

    ``engines`` names which passes run (subset of ``"simlint"``,
    ``"flow"``, ``"usage"``; default all — this is ``--only`` in the
    CLI, and it also scopes U001: a pragma for a family no executed
    engine evaluates is not judged).  ``select`` is a post-filter by
    rule-id prefix (``["S1"]`` keeps S101..S104).
    """
    from repro.analysis.flow import analyze_modules

    active = set(engines) if engines is not None else \
        set(ENGINE_PREFIXES)
    base = root or package_root()
    parsed: List[Tuple[str, ast.Module]] = []
    tables: Dict[str, SuppressionTable] = {}
    findings: List[LintFinding] = []
    for path, rel in iter_package_files(base):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=rel)
        parsed.append((rel, tree))
        tables[rel] = SuppressionTable.from_source(source)
        if "simlint" in active:
            findings.extend(_ModuleLinter(rel, source, tree=tree,
                                          table=tables[rel]).run())
    if "flow" in active:
        findings.extend(analyze_modules(parsed, tables=tables,
                                        package=base.name))
    if "usage" in active:
        evaluated = [prefix for engine in active - {"usage"}
                     for prefix in ENGINE_PREFIXES[engine]]
        for rel, _ in parsed:
            findings.extend(unused_suppressions(rel, tables[rel],
                                                evaluated))
    if select is not None:
        findings = [f for f in findings
                    if any(f.rule.startswith(p) for p in select)]
    findings.sort(key=LintFinding.sort_key)
    return findings
