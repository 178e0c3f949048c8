"""Static lockset analysis for the threaded serve/campaign/chaos stack.

The serve layer mixes three concurrency domains: the asyncio event loop
(scheduler state is *loop-confined* — touched only from loop
callbacks), worker threads (the simulation executor, the result-cache
callers, the circuit breakers), and cross-domain hand-off objects
(``threading.Event`` flags crossed into executor threads).  The lock
discipline separating them was, before this pass, enforced only by
convention.

Engine B makes the convention checkable.  Each class (or module)
declares its discipline in a ``Concurrency:`` docstring block::

    Concurrency:
        guarded-by _lock: hits, misses, evictions
        loop-confined: jobs, _queued, _running
        unguarded-ok: cancel_event

and a flow-sensitive pass checks the code against it.  The pass runs on
the :mod:`repro.analysis.flow` front end: the locks held at each point
of a function come from a forward must-analysis over its CFG (a
``with`` entry acquires, its cleanup releases, an exception edge
carries the locks held before the raising block; a nested def starts
empty — it runs later, possibly on another thread), and calls resolve
through the flow call graph.

- **S501** — a ``guarded-by`` field accessed outside a ``with`` region
  holding its lock (``__init__`` excepted: the object is not yet
  shared).  A ``loop-confined`` field accessed from a function that
  runs off-loop (handed to ``run_in_executor``/``Executor.submit`` or a
  ``Thread(target=...)``, or called from one, transitively) is the
  same defect.  When a class declares a contract, any field *written*
  outside ``__init__`` must appear in it — silent growth of undeclared
  shared state is flagged too.  Classes that own locks but declare
  nothing are checked in inference mode: a field written both under a
  lock and outside any lock is flagged.
- **S502** — lock acquisition-order cycles.  Acquiring lock B while
  holding lock A adds edge A→B, whether B is taken in the same function
  or any number of resolved calls below it (one bottom-up summary of
  the locks each function acquires); any cycle in the resulting graph
  across every analyzed module is a potential deadlock.
- **S503** — blocking calls made while holding a lock: ``.wait()`` on
  anything but the held condition itself, thread/process ``.join()``,
  ``time.sleep``, socket reads, and ``Queue.get/.put``.

A method docstring containing ``Caller must hold <lock>.`` is trusted
as a precondition: the body is analyzed with that lock held (the claim
itself is the caller's obligation — the documented, greppable kind).

A class's locks are discovered two ways: constructed inline in
``__init__`` (``self._lock = threading.Lock()``) or *injected* — an
``__init__`` parameter annotated with a lock type assigned to self
(``def __init__(self, lock: threading.Lock): self._lock = lock``).
The metrics registry uses the injected form to share one lock across
every metric it creates, which is what makes its whole-set snapshot a
single consistent acquisition.

Findings reuse the simlint machinery (:class:`LintFinding`,
``# simlint: disable=`` / ``disable-file=`` pragmas, severity registry)
so ``repro verify lockset`` and ``repro lint`` speak one language.
"""

import ast
import re
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple)

from repro.analysis.flow import (CFG, build_callgraph, build_cfg,
                                 dotted_name, off_loop_set, self_attr,
                                 solve_bottom_up)
from repro.analysis.registry import LintFinding, SuppressionTable
from repro.analysis.simlint import package_root

#: Modules under the repro package root the shipped-tree analysis
#: covers: everything that owns a lock or runs threaded today.
LOCKSET_TARGETS = (
    "serve/scheduler.py",
    "serve/cache.py",
    "serve/api.py",
    "serve/client.py",
    "serve/pool.py",
    "campaign/store.py",
    "campaign/engine.py",
    "campaign/worker.py",
    "chaos/controller.py",
    "obs/metrics.py",
    "obs/trace.py",
)

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore",
                   "BoundedSemaphore"}
_QUEUE_FACTORIES = {"Queue", "LifoQueue", "PriorityQueue", "SimpleQueue"}
_BLOCKING_ATTRS = {"wait", "recv", "recv_into", "accept", "urlopen",
                   "getresponse", "select"}
_CONTRACT_RE = re.compile(
    r"^\s*(?:(guarded-by)\s+(\w+)|(loop-confined)|(unguarded-ok))\s*:"
    r"\s*(.*)$")
_PRECONDITION_RE = re.compile(r"Caller must hold\s+`?(\w+)`?")
#: Call-site kinds whose callee runs now, on the caller's thread.
_CALL_KINDS = {"call", "await"}

#: One held lock: (lock node, the ``with`` statement that took it, or
#: None for a documented precondition).  Keying holds on the statement
#: lets a re-entrant inner ``with`` release only its own hold.
_Hold = Tuple[str, Optional[ast.AST]]


def _ctor(node: ast.AST) -> str:
    """``"Lock"`` for ``Lock()`` or ``threading.Lock()``, else ``""``."""
    if not isinstance(node, ast.Call):
        return ""
    return (dotted_name(node.func) or "").rsplit(".", 1)[-1]


@dataclass
class Contract:
    """One class's declared concurrency discipline."""

    guards: Dict[str, str] = field(default_factory=dict)  # field -> lock
    loop_confined: Set[str] = field(default_factory=set)
    unguarded_ok: Set[str] = field(default_factory=set)
    declared: bool = False

    def mentions(self, name: str) -> bool:
        return (name in self.guards or name in self.loop_confined
                or name in self.unguarded_ok)

    @classmethod
    def from_docstring(cls, doc: Optional[str]) -> "Contract":
        contract = cls()
        if not doc:
            return contract
        in_block = False
        for raw in doc.splitlines():
            line = raw.strip()
            if line == "Concurrency:":
                in_block = True
                contract.declared = True
                continue
            if not in_block:
                continue
            match = _CONTRACT_RE.match(raw)
            if match is None:
                if line:  # a non-entry line ends the block
                    in_block = False
                continue
            fields = {part.strip() for part in match.group(5).split(",")
                      if part.strip()}
            if match.group(1):          # guarded-by <lock>:
                for name in fields:
                    contract.guards[name] = match.group(2)
            elif match.group(3):        # loop-confined:
                contract.loop_confined |= fields
            else:                       # unguarded-ok:
                contract.unguarded_ok |= fields
        return contract


@dataclass
class _ClassModel:
    name: str
    contract: Contract
    locks: Set[str] = field(default_factory=set)       # self.<lock> attrs
    queues: Set[str] = field(default_factory=set)      # Queue-typed attrs
    #: field -> first line it is written (outside ``__init__``) with /
    #: without a lock held, for inference mode.
    writes_locked: Dict[str, int] = field(default_factory=dict)
    writes_unlocked: Dict[str, int] = field(default_factory=dict)

    def lock_node(self, lockattr: str) -> str:
        return f"{self.name}.{lockattr}"


def _held_locks(cfg: CFG, entry: FrozenSet[_Hold],
                acquires: Callable[[ast.AST], List[str]]
                ) -> Dict[int, FrozenSet[_Hold]]:
    """Locks held on every path into each reachable block of ``cfg``."""
    held: Dict[int, FrozenSet[_Hold]] = {cfg.entry: entry}
    work = [cfg.entry]
    while work:
        block = cfg.blocks[work.pop()]
        before = held[block.idx]
        after = before
        if block.kind == "with-enter":
            after = before.union((lock, block.node)
                                 for lock in acquires(block.node))
        elif block.kind == "with-cleanup":
            after = frozenset(h for h in before if h[1] is not block.node)
        flows = [(succ, after) for succ in block.succ]
        if block.exc is not None:
            flows.append((block.exc, before))
        for succ, out in flows:
            old = held.get(succ)
            new = out if old is None else old & out
            if new != old:
                held[succ] = new
                work.append(succ)
    return held


def _evaluated(roots: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Every node under ``roots`` that runs now: lambda bodies are
    deferred, so they carry no lock context and are skipped."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _ModuleAnalysis:
    """One module's contracts, locks and findings; the lock-order graph
    is accumulated across modules by :func:`analyze_modules`."""

    def __init__(self, rel_path: str, source: str) -> None:
        self.rel = rel_path
        self.source = source
        self.tree = ast.parse(source, filename=rel_path)
        self.suppress: Optional[SuppressionTable] = None
        #: Insertion-ordered set: a ``finally`` body is lowered once per
        #: exit path, so one statement can be scanned more than once.
        self.findings: Dict[LintFinding, None] = {}
        self.classes: Dict[str, _ClassModel] = {}
        self.module_locks: Set[str] = set()   # module-level lock globals
        self.module_contract = Contract.from_docstring(
            ast.get_docstring(self.tree))
        #: (holder, acquired, line) lock-order edges discovered here.
        self.edges: List[Tuple[str, str, int]] = []
        for stmt in self.tree.body:
            if (isinstance(stmt, ast.Assign)
                    and _ctor(stmt.value) in _LOCK_FACTORIES):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.module_locks.add(target.id)
            if isinstance(stmt, ast.ClassDef):
                model = _ClassModel(
                    name=stmt.name,
                    contract=Contract.from_docstring(
                        ast.get_docstring(stmt)))
                self._collect_init(model, stmt)
                self.classes[stmt.name] = model

    # -- structure ----------------------------------------------------------
    @staticmethod
    def _collect_init(model: _ClassModel, node: ast.ClassDef) -> None:
        for item in node.body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "__init__"):
                # Lock injection: `__init__(..., lock: threading.Lock)`
                # assigned to self is as much this class's lock as an
                # inline construction (the metrics registry shares one
                # lock across every metric it creates this way).
                lock_params = {
                    arg.arg for arg in item.args.args + item.args.kwonlyargs
                    if (dotted_name(arg.annotation) or "").rsplit(
                        ".", 1)[-1] in _LOCK_FACTORIES}
                for node in ast.walk(item):
                    if not isinstance(node, ast.Assign):
                        continue
                    for target in node.targets:
                        attr = self_attr(target)
                        if attr is None:
                            continue
                        if _ctor(node.value) in _LOCK_FACTORIES or (
                                isinstance(node.value, ast.Name)
                                and node.value.id in lock_params):
                            model.locks.add(attr)
                        elif _ctor(node.value) in _QUEUE_FACTORIES:
                            model.queues.add(attr)

    def locks_of_with(self, node: ast.AST,
                      model: Optional[_ClassModel]) -> List[str]:
        """Lock nodes a ``with`` statement acquires, in item order
        (``async with`` takes asyncio primitives, not thread locks)."""
        out: List[str] = []
        if not isinstance(node, ast.With):
            return out
        for item in node.items:
            expr = item.context_expr
            attr = self_attr(expr)
            if (attr is not None and model is not None
                    and attr in model.locks):
                out.append(model.lock_node(attr))
            elif (isinstance(expr, ast.Name)
                  and expr.id in self.module_locks):
                out.append(f"{self.rel}::{expr.id}")
        return out

    # -- flow-sensitive checks ----------------------------------------------
    def check_function(self, cfg: CFG, model: Optional[_ClassModel],
                       nested: bool, off_loop: bool,
                       callee_locks: Dict[int, FrozenSet[str]]) -> None:
        """S501/S503 findings and S502 edges of one function.

        ``model`` is the class a method (or a def nested in one) belongs
        to, None at module scope; ``callee_locks`` maps a resolved call
        node to the locks its callee acquires, at any depth.
        """
        func = cfg.func
        entry: FrozenSet[_Hold] = frozenset()
        if model is not None and not nested:
            entry = frozenset(
                (model.lock_node(attr), None)
                for attr in _PRECONDITION_RE.findall(
                    ast.get_docstring(func) or "")
                if attr in model.locks)
        holds = _held_locks(cfg, entry,
                            lambda node: self.locks_of_with(node, model))
        for block in cfg.blocks:
            if block.idx not in holds or block.kind == "with-cleanup":
                continue
            held = sorted({lock for lock, _ in holds[block.idx]})
            if block.kind == "with-enter":
                acquired = self.locks_of_with(block.node, model)
                for index, lock in enumerate(acquired):
                    # ``with a, b:`` takes ``b`` while holding ``a``.
                    self._order_edges(held + acquired[:index], [lock],
                                      block.line)
            for node in _evaluated(cfg.block_exprs(block)):
                if model is not None:
                    attr = self_attr(node)
                    if attr is not None:
                        self._check_field(node, attr, model, func.name,
                                          held, off_loop)
                elif (isinstance(node, ast.Name)
                      and node.id in self.module_contract.guards):
                    lockname = self.module_contract.guards[node.id]
                    if f"{self.rel}::{lockname}" not in held:
                        self.report(
                            "S501", node.lineno,
                            f"global {node.id} is declared guarded-by "
                            f"{lockname} but accessed without it")
                if isinstance(node, ast.Call) and held:
                    self._check_blocking(node, held, model)
                    self._order_edges(
                        held, sorted(callee_locks.get(id(node), ())),
                        node.lineno)

    def _order_edges(self, held: Sequence[str], acquired: Iterable[str],
                     line: int) -> None:
        for lock in acquired:
            for holder in held:
                if holder != lock:
                    self.edges.append((holder, lock, line))

    def _check_field(self, node: ast.Attribute, attr: str,
                     model: _ClassModel, method_name: str,
                     held: Sequence[str], off_loop: bool) -> None:
        in_init = method_name == "__init__"
        is_write = isinstance(node.ctx, (ast.Store, ast.Del))
        if is_write and not in_init:
            writes = model.writes_locked if held else model.writes_unlocked
            writes[attr] = min(writes.get(attr, node.lineno), node.lineno)
        contract = model.contract
        if not contract.declared or in_init:
            return
        if attr in model.locks or attr in contract.unguarded_ok:
            return
        if attr in contract.guards:
            lock = model.lock_node(contract.guards[attr])
            if lock not in held:
                self.report(
                    "S501", node.lineno,
                    f"{model.name}.{attr} is declared guarded-by "
                    f"{contract.guards[attr]} but accessed without "
                    f"holding it (in {method_name})")
            return
        if attr in contract.loop_confined:
            if off_loop:
                self.report(
                    "S501", node.lineno,
                    f"{model.name}.{attr} is declared loop-confined "
                    f"but {method_name} runs off-loop (handed to an "
                    f"executor or thread)")
            return
        if is_write and not contract.mentions(attr):
            self.report(
                "S501", node.lineno,
                f"{model.name}.{attr} is written outside __init__ but "
                f"missing from the class 'Concurrency:' contract; "
                f"declare its guard (or loop-confined / unguarded-ok)")

    def check_inference(self) -> None:
        """Lock-owning classes without a contract: a field written both
        under a lock and outside any lock is a race."""
        for model in self.classes.values():
            if not model.locks or model.contract.declared:
                continue
            for name in sorted(set(model.writes_locked) &
                               set(model.writes_unlocked)):
                self.report(
                    "S501", model.writes_unlocked[name],
                    f"{model.name}.{name} is written under a lock "
                    f"at line {model.writes_locked[name]} but without "
                    f"one here; guard both or declare the field "
                    f"in a 'Concurrency:' docstring block")

    def _check_blocking(self, node: ast.Call, held: Sequence[str],
                        model: Optional[_ClassModel]) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        blocking = None
        if attr in _BLOCKING_ATTRS:
            receiver = self_attr(func.value)
            if (receiver is not None and model is not None
                    and model.lock_node(receiver) in held):
                return  # Condition.wait on the held condition itself
            blocking = f".{attr}()"
        elif attr == "join" and not node.args:
            blocking = ".join()"
        elif (attr == "sleep" and isinstance(func.value, ast.Name)
                and func.value.id == "time"):
            blocking = "time.sleep()"
        elif attr in ("get", "put"):
            receiver = self_attr(func.value)
            if (receiver is not None and model is not None
                    and receiver in model.queues):
                blocking = f"Queue.{attr}()"
        if blocking is not None:
            locks = ", ".join(held)
            self.report(
                "S503", node.lineno,
                f"blocking call {blocking} while holding {locks}; "
                f"release the lock first or use a timeout-and-retry "
                f"outside the critical section")

    def report(self, rule: str, line: int, message: str) -> None:
        # Pragmas are tokenized on a module's first finding, so a clean
        # module never pays for it.
        if self.suppress is None:
            self.suppress = SuppressionTable.from_source(self.source)
        if not self.suppress.active(rule, line):
            self.findings[LintFinding(rule, self.rel, line, message)] = None


def _find_cycles(edges: Dict[str, Set[str]]) -> List[List[str]]:
    """Elementary cycles in the lock-order graph (DFS, deduplicated by
    rotation so each cycle reports once)."""
    cycles: List[List[str]] = []
    seen: Set[Tuple[str, ...]] = set()
    for start in sorted(edges):
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for succ in sorted(edges.get(node, ())):
                if succ == start:
                    rotation = min(
                        tuple(path[i:] + path[:i])
                        for i in range(len(path)))
                    if rotation not in seen:
                        seen.add(rotation)
                        cycles.append(path + [start])
                elif succ not in path and len(path) < 8:
                    stack.append((succ, path + [succ]))
    return cycles


def analyze_modules(modules: Sequence[Tuple[str, str]]) -> List[LintFinding]:
    """Analyze (rel_path, source) pairs as one lock-order universe."""
    analyses = {rel: _ModuleAnalysis(rel, source)
                for rel, source in modules}
    graph = build_callgraph([(rel, analysis.tree)
                             for rel, analysis in analyses.items()])
    off_loop = off_loop_set(graph)
    scopes: Dict[str, Tuple[_ModuleAnalysis, Optional[_ClassModel],
                            CFG, bool]] = {}
    direct: Dict[str, FrozenSet[str]] = {}
    for fid, info in graph.functions.items():
        analysis = analyses[info.rel]
        decl = info.decl
        model = analysis.classes.get(decl.cls) if decl.cls else None
        if decl.cls and (model is None or not
                         decl.qualname.startswith(decl.cls + ".")):
            continue  # a class nested in a class or function
        cfg = build_cfg(decl.node, fid)
        scopes[fid] = (analysis, model, cfg, decl.parent is not None)
        direct[fid] = frozenset(
            lock for block in cfg.blocks if block.kind == "with-enter"
            for lock in analysis.locks_of_with(block.node, model))

    def transfer(fid: str,
                 summaries: Dict[str, object]) -> FrozenSet[str]:
        acquired = set(direct.get(fid, ()))
        for callee in graph.callees(fid, _CALL_KINDS):
            acquired |= summaries.get(callee, frozenset())
        return frozenset(acquired)

    acquires = solve_bottom_up(graph, _CALL_KINDS, transfer)
    for fid, (analysis, model, cfg, nested) in scopes.items():
        callee_locks = {id(site.node): acquires[site.target]
                        for site in graph.edges(fid, _CALL_KINDS)}
        analysis.check_function(cfg, model, nested, fid in off_loop,
                                callee_locks)

    lock_order: Dict[str, Set[str]] = {}
    edge_site: Dict[Tuple[str, str], Tuple[_ModuleAnalysis, int]] = {}
    for analysis in analyses.values():
        analysis.check_inference()
        for holder, acquired, line in analysis.edges:
            lock_order.setdefault(holder, set()).add(acquired)
            edge_site.setdefault((holder, acquired), (analysis, line))
    for cycle in _find_cycles(lock_order):
        analysis, line = edge_site[(cycle[0], cycle[1])]
        analysis.report(
            "S502", line,
            f"lock acquisition-order cycle: {' -> '.join(cycle)}; "
            f"impose a global order or merge the locks")
    findings = [finding for analysis in analyses.values()
                for finding in analysis.findings]
    findings.sort(key=LintFinding.sort_key)
    return findings


def analyze_source(source: str, rel_path: str) -> List[LintFinding]:
    """Single-module entry point (tests and tooling)."""
    return analyze_modules([(rel_path, source)])


def analyze_lockset() -> List[LintFinding]:
    """Analyze the shipped target modules under the package root."""
    base = package_root()
    return analyze_modules([(rel, (base / rel).read_text(encoding="utf-8"))
                            for rel in LOCKSET_TARGETS])
