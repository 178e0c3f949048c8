"""Module-granular call-graph construction over parsed source trees.

Resolution is deliberately the cheap four-fifths: module-level
functions, ``from x import y`` (chased through package re-exports),
``self.method``, and ``self.member.method`` chains where the member's
class is known from a constructor call or a parameter annotation in
``__init__``.  Anything else stays an *external* call site carrying
its dotted text, which is exactly what the rule catalogs match
(``time.sleep``, ``.acquire``, ``.glob``).  The S6/S7 rule families
and the lockset analyzer (:mod:`repro.verify.lockset`) all resolve
calls through this one graph.

Each call site records how the callee runs relative to the caller:

=========== ==========================================================
call        plain synchronous call — callee runs here, now
await       awaited (or wrapped in ``wait_for``/``shield``/…) — callee
            runs on the same event loop
task        handed to ``create_task``/``ensure_future``/``gather`` —
            runs later, still on the loop
executor    callable *reference* passed to ``run_in_executor`` /
            ``Executor.submit`` / ``Thread(target=…)`` — runs on a
            worker thread (the executor hop S601 looks for)
enters-loop call written as the argument of ``run_until_complete`` /
            ``asyncio.run`` — runs *on* the loop that call starts
=========== ==========================================================

On top sit Tarjan SCC condensation and :func:`solve_bottom_up`, a
generic callee-first summary fixpoint the rule families instantiate.
"""

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow.ir import (FuncDecl, child_blocks, dotted_name,
                                    iter_functions, parse_annotation,
                                    self_attr)

#: Wrappers whose call arguments are awaited/scheduled on the loop.
_SCHED_WRAPPERS = {"create_task", "ensure_future", "gather", "wait_for",
                   "shield", "wait", "as_completed",
                   "run_coroutine_threadsafe"}
#: Calls whose argument coroutine runs on the loop they start.
_LOOP_RUNNERS = {"run_until_complete"}
_LOOP_RUNNER_DOTTED = {"asyncio.run"}
#: Callables whose first positional argument is a callable shipped to
#: a worker thread.
_EXECUTOR_SHIPS = {"run_in_executor", "submit"}

_IMPORT_CHASE_LIMIT = 8


@dataclass
class FunctionInfo:
    fid: str  # "serve/api.py::ServeServer._submit"
    rel: str
    decl: FuncDecl

    @property
    def is_async(self) -> bool:
        return self.decl.is_async

    @property
    def line(self) -> int:
        return self.decl.node.lineno


@dataclass
class CallSite:
    caller: str
    name: str  # canonical dotted text ("time.sleep", "self.cache.get")
    target: Optional[str]  # resolved fid, or None for external calls
    kind: str  # call | await | task | executor | enters-loop
    node: ast.AST
    discarded: bool = False  # expression-statement position

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)


@dataclass
class _Class:
    name: str
    rel: str
    methods: Dict[str, str]  # method name -> local qualname
    bases: List[str] = field(default_factory=list)  # dotted as written
    members: Dict[str, str] = field(default_factory=dict)  # attr -> cid

    @property
    def cid(self) -> str:
        return f"{self.rel}::{self.name}"


@dataclass
class _Module:
    rel: str
    dotted: str  # "repro.serve.api"
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, _Class] = field(default_factory=dict)
    #: module-level variable name -> cid (annotation or ctor assign)
    globals: Dict[str, str] = field(default_factory=dict)


class CallGraph:
    """Functions, classes, and call sites of one analyzed tree."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.sites: Dict[str, List[CallSite]] = {}
        self.modules: Dict[str, _Module] = {}
        self.classes: Dict[str, _Class] = {}  # cid -> class

    def edges(self, fid: str,
              kinds: Optional[Set[str]] = None) -> List[CallSite]:
        """Resolved call sites out of ``fid``, optionally by kind."""
        return [site for site in self.sites.get(fid, ())
                if site.target is not None
                and (kinds is None or site.kind in kinds)]

    def callees(self, fid: str, kinds: Set[str]) -> List[str]:
        return [site.target for site in self.edges(fid, kinds)]


def build_callgraph(modules: Sequence[Tuple[str, ast.Module]],
                    package: str = "repro") -> CallGraph:
    builder = _GraphBuilder(modules, package)
    return builder.graph


class _GraphBuilder:
    def __init__(self, modules: Sequence[Tuple[str, ast.Module]],
                 package: str) -> None:
        self.package = package
        self.graph = CallGraph()
        self.by_dotted: Dict[str, _Module] = {}
        for rel, tree in modules:
            module = _Module(rel, self._dotted_of(rel), tree)
            self.graph.modules[rel] = module
            self.by_dotted[module.dotted] = module
        for module in self.graph.modules.values():
            self._index_module(module)
        for module in self.graph.modules.values():
            self._resolve_members(module)
            self._resolve_globals(module)
        for module in self.graph.modules.values():
            for info in module.functions.values():
                self.graph.sites[info.fid] = _SiteCollector(
                    self, module, info).collect()

    def _dotted_of(self, rel: str) -> str:
        parts = rel[:-3].split("/")  # strip .py
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join([self.package] + parts)

    # -- pass 1: declarations ----------------------------------------
    def _index_module(self, module: _Module) -> None:
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    module.imports[local] = (alias.name if alias.asname
                                             else alias.name.split(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                base = self._import_base(module, stmt)
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = f"{base}.{alias.name}"
        for decl in iter_functions(module.tree):
            info = FunctionInfo(f"{module.rel}::{decl.qualname}",
                                module.rel, decl)
            module.functions[decl.qualname] = info
            self.graph.functions[info.fid] = info
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            methods = {
                item.name: f"{stmt.name}.{item.name}"
                for item in stmt.body
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))}
            cls = _Class(stmt.name, module.rel, methods,
                         bases=[dotted_name(b) or "" for b in stmt.bases])
            module.classes[stmt.name] = cls
            self.graph.classes[cls.cid] = cls

    def _import_base(self, module: _Module,
                     stmt: ast.ImportFrom) -> str:
        if not stmt.level:
            return stmt.module or ""
        parts = module.dotted.split(".")
        if not module.rel.endswith("__init__.py"):
            parts = parts[:-1]  # the module's own package
        parts = parts[:len(parts) - (stmt.level - 1)]
        if stmt.module:
            parts.append(stmt.module)
        return ".".join(parts)

    # -- entity resolution -------------------------------------------
    def resolve_entity(self, dotted: str,
                       depth: int = 0) -> Optional[Tuple[str, object]]:
        """("func", FunctionInfo) | ("class", _Class) | None."""
        if depth > _IMPORT_CHASE_LIMIT:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = self.by_dotted.get(".".join(parts[:cut]))
            if module is None:
                continue
            rest = parts[cut:]
            head = rest[0]
            if head in module.classes:
                cls = module.classes[head]
                if len(rest) == 1:
                    return ("class", cls)
                if len(rest) == 2 and rest[1] in cls.methods:
                    return ("func",
                            module.functions[cls.methods[rest[1]]])
                return None
            if len(rest) == 1 and head in module.functions:
                return ("func", module.functions[head])
            if head in module.imports:  # package re-export chain
                chased = ".".join([module.imports[head]] + rest[1:])
                return self.resolve_entity(chased, depth + 1)
            return None
        return None

    def resolve_local(self, module: _Module,
                      name: str) -> Optional[Tuple[str, object]]:
        """A bare name in module scope: local def, class, or import."""
        if name in module.classes:
            return ("class", module.classes[name])
        if name in module.functions:
            return ("func", module.functions[name])
        if name in module.imports:
            return self.resolve_entity(module.imports[name])
        return None

    def class_by_name(self, module: _Module,
                      name: Optional[str]) -> Optional[_Class]:
        if not name:
            return None
        entity = self.resolve_local(module, name.rsplit(".", 1)[-1])
        if entity and entity[0] == "class":
            return entity[1]
        return None

    def method_of(self, cls: Optional[_Class],
                  name: str) -> Optional[FunctionInfo]:
        """Method lookup with one level of base-class chasing."""
        seen: Set[str] = set()
        while cls is not None and cls.cid not in seen:
            seen.add(cls.cid)
            if name in cls.methods:
                module = self.graph.modules[cls.rel]
                return module.functions.get(cls.methods[name])
            parent = None
            for base in cls.bases:
                parent = self.class_by_name(
                    self.graph.modules[cls.rel], base)
                if parent is not None:
                    break
            cls = parent
        return None

    # -- pass 2: member types ----------------------------------------
    def _resolve_globals(self, module: _Module) -> None:
        """Types of module-level variables (``_CONTROLLER:
        Optional[ChaosController] = None`` and ctor assigns)."""
        for stmt in module.tree.body:
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                cls = self.class_by_name(
                    module, parse_annotation(stmt.annotation))
                if cls is not None:
                    module.globals[stmt.target.id] = cls.cid
            elif isinstance(stmt, ast.Assign):
                cls = self._value_class(module, stmt.value, {})
                if cls is None:
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        module.globals[target.id] = cls.cid

    def _resolve_members(self, module: _Module) -> None:
        for cls in module.classes.values():
            init = module.functions.get(cls.methods.get("__init__", ""))
            if init is None:
                continue
            var_types = self._param_types(module, init.decl.node)
            for node in ast.walk(init.decl.node):
                if not isinstance(node, ast.Assign):
                    continue
                value_cls = self._value_class(module, node.value,
                                              var_types)
                for target in node.targets:
                    if (isinstance(target, ast.Name)
                            and value_cls is not None):
                        var_types[target.id] = value_cls.cid
                    attr = self_attr(target)
                    if attr is not None and value_cls is not None:
                        cls.members[attr] = value_cls.cid

    def _param_types(self, module: _Module,
                     func: ast.AST) -> Dict[str, str]:
        types: Dict[str, str] = {}
        args = func.args
        for arg in args.args + args.kwonlyargs + args.posonlyargs:
            cls = self.class_by_name(module,
                                     parse_annotation(arg.annotation))
            if cls is not None:
                types[arg.arg] = cls.cid
        return types

    def _value_class(self, module: _Module, value: ast.AST,
                     var_types: Dict[str, str]) -> Optional[_Class]:
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            return self.class_by_name(module, name) if name else None
        if isinstance(value, ast.Name):
            cid = var_types.get(value.id) or \
                module.globals.get(value.id)
            if cid is not None:
                return self.graph.classes.get(cid)
        return None


class _SiteCollector:
    """Every call occurrence of one function, kind-classified."""

    def __init__(self, builder: _GraphBuilder, module: _Module,
                 info: FunctionInfo) -> None:
        self.b = builder
        self.module = module
        self.info = info
        self.sites: List[CallSite] = []
        self.var_types = builder._param_types(module, info.decl.node)
        self._collect_local_types()

    def _collect_local_types(self) -> None:
        for stmt in ast.walk(self.info.decl.node):
            if isinstance(stmt, ast.Assign):
                cls = self.b._value_class(self.module, stmt.value,
                                          self.var_types)
                if cls is not None:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            self.var_types[target.id] = cls.cid
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                cls = self.b.class_by_name(
                    self.module, parse_annotation(stmt.annotation))
                if cls is not None:
                    self.var_types[stmt.target.id] = cls.cid

    # -- traversal ----------------------------------------------------
    def collect(self) -> List[CallSite]:
        for stmt in self._own_statements(self.info.decl.node):
            discard = (isinstance(stmt, ast.Expr)
                       and isinstance(stmt.value, ast.Call))
            for expr in self._stmt_exprs(stmt):
                self._visit(expr, "call",
                            discard_root=stmt.value if discard else None)
        return self.sites

    def _own_statements(self, func: ast.AST) -> List[ast.stmt]:
        """Statements executed by this function — nested defs' bodies
        belong to their own FunctionInfo."""
        out: List[ast.stmt] = []
        stack: List[ast.stmt] = list(func.body)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            out.append(stmt)
            for block in child_blocks(stmt):
                stack.extend(block)
        return out

    @staticmethod
    def _stmt_exprs(stmt: ast.stmt) -> List[ast.expr]:
        out: List[ast.expr] = []
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                out.append(value)
            elif isinstance(value, list):
                out.extend(v for v in value if isinstance(v, ast.expr))
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            out.extend(item.context_expr for item in stmt.items)
        return out

    def _visit(self, node: ast.AST, ctx: str,
               discard_root: Optional[ast.AST] = None) -> None:
        if isinstance(node, (ast.Lambda, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            return  # deferred execution, separate scope
        if isinstance(node, ast.Await):
            value = node.value
            self._visit(value, "await" if isinstance(value, ast.Call)
                        else ctx)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, ctx, discard_root)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, ctx)

    def _visit_call(self, node: ast.Call, ctx: str,
                    discard_root: Optional[ast.AST]) -> None:
        dotted = dotted_name(node.func)
        canonical = self._canonical(dotted)
        last = canonical.rsplit(".", 1)[-1] if canonical else ""
        self._record(node, canonical or "?", ctx,
                     discarded=node is discard_root and ctx == "call")
        # Receiver subexpressions may hold further calls.
        if isinstance(node.func, ast.Attribute):
            self._visit(node.func.value, "call")
        arg_ctx = "call"
        ship_slots: List[int] = []
        if last in _SCHED_WRAPPERS:
            arg_ctx = "task"
        elif last in _LOOP_RUNNERS or canonical in _LOOP_RUNNER_DOTTED:
            arg_ctx = "enters-loop"
        elif last in _EXECUTOR_SHIPS:
            # run_in_executor(executor, fn, *args) / submit(fn, *args)
            ship_slots = [1] if last == "run_in_executor" else [0]
        for index, arg in enumerate(node.args):
            if index in ship_slots:
                self._record_ref(arg)
            else:
                self._visit(arg, arg_ctx)
        for keyword in node.keywords:
            if last == "Thread" and keyword.arg == "target":
                self._record_ref(keyword.value)
            else:
                self._visit(keyword.value, arg_ctx)

    def _record_ref(self, node: ast.AST) -> None:
        """A callable reference shipped to a worker thread."""
        if (isinstance(node, ast.Call)
                and (dotted_name(node.func) or "").endswith("partial")
                and node.args):
            for extra in node.args[1:]:
                self._visit(extra, "call")
            node = node.args[0]
        dotted = dotted_name(node)
        if dotted is None:
            self._visit(node, "call")
            return
        self._record_named(node, self._canonical(dotted) or dotted,
                           "executor")

    def _canonical(self, dotted: Optional[str]) -> Optional[str]:
        """Expand a leading import alias to its full dotted form."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        full = self.module.imports.get(head)
        if full is None or head in ("self",):
            return dotted
        return f"{full}.{rest}" if rest else full

    def _record(self, node: ast.Call, name: str, ctx: str,
                discarded: bool) -> None:
        self._record_named(node, name, ctx, discarded)

    def _record_named(self, node: ast.AST, name: str, kind: str,
                      discarded: bool = False) -> None:
        target = self._resolve(name)
        self.sites.append(CallSite(self.info.fid, name,
                                   target.fid if target else None,
                                   kind, node, discarded))

    # -- resolution ---------------------------------------------------
    def _resolve(self, dotted: str) -> Optional[FunctionInfo]:
        if not dotted or dotted == "?":
            return None
        parts = dotted.split(".")
        if parts[0] == "self":
            return self._resolve_self(parts[1:])
        if len(parts) == 1:
            return self._resolve_bare(parts[0])
        if parts[0] in self.var_types:
            return self._resolve_chain(
                self.b.graph.classes.get(self.var_types[parts[0]]),
                parts[1:])
        if parts[0] in self.module.globals:
            return self._resolve_chain(
                self.b.graph.classes.get(self.module.globals[parts[0]]),
                parts[1:])
        entity = self.b.resolve_entity(dotted)
        if entity is None:
            return None
        if entity[0] == "func":
            return entity[1]
        return self.b.method_of(entity[1], "__init__")  # constructor

    def _resolve_self(self,
                      chain: List[str]) -> Optional[FunctionInfo]:
        cls = self.module.classes.get(self.info.decl.cls or "")
        return self._resolve_chain(cls, chain)

    def _resolve_chain(self, cls: Optional[_Class],
                       chain: List[str]) -> Optional[FunctionInfo]:
        """member.member….method lookup through known member types."""
        if cls is None or not chain:
            return None
        for attr in chain[:-1]:
            cid = cls.members.get(attr)
            cls = self.b.graph.classes.get(cid) if cid else None
            if cls is None:
                return None
        return self.b.method_of(cls, chain[-1])

    def _resolve_bare(self, name: str) -> Optional[FunctionInfo]:
        # Enclosing-scope nested defs first (thread targets are often
        # closures), then module scope.
        scope = self.info.decl.qualname
        while "." in scope:
            scope = scope.rsplit(".", 1)[0]
            candidate = self.module.functions.get(f"{scope}.{name}")
            if candidate is not None:
                return candidate
        candidate = self.module.functions.get(
            f"{self.info.decl.qualname}.{name}")
        if candidate is not None:
            return candidate
        entity = self.b.resolve_local(self.module, name)
        if entity is None:
            return None
        if entity[0] == "func":
            return entity[1]
        return self.b.method_of(entity[1], "__init__")


# -- SCC condensation and summary fixpoint ---------------------------------

def strongly_connected(nodes: Sequence[str],
                       succ: Callable[[str], Sequence[str]]
                       ) -> List[List[str]]:
    """Tarjan SCCs, emitted callees-first (reverse topological)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    out: List[List[str]] = []
    counter = [0]

    def visit(root: str) -> None:
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_idx = work.pop()
            if child_idx == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            children = [c for c in succ(node) if c != node]
            advanced = False
            for offset in range(child_idx, len(children)):
                child = children[offset]
                if child not in index:
                    work.append((node, offset + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            if low[node] == index[node]:
                scc: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                out.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for node in nodes:
        if node not in index:
            visit(node)
    return out


def solve_bottom_up(graph: CallGraph, kinds: Set[str],
                    transfer: Callable[[str, Dict[str, object]], object]
                    ) -> Dict[str, object]:
    """Generic callee-first summary fixpoint.

    ``transfer(fid, summaries)`` computes one function's summary given
    the current summary map; within an SCC it is re-run until the
    component stabilizes (summaries must grow monotonically for this
    to terminate — ours are reach-one-witness, which do).
    """
    order = strongly_connected(
        sorted(graph.functions),
        lambda fid: [t for t in graph.callees(fid, kinds)
                     if t in graph.functions])
    summaries: Dict[str, object] = {}
    for scc in order:
        changed = True
        while changed:
            changed = False
            for fid in scc:
                new = transfer(fid, summaries)
                if new != summaries.get(fid):
                    summaries[fid] = new
                    changed = True
    return summaries
