"""Per-function control-flow graphs lowered from the stdlib ``ast``.

One :class:`CFG` per function: statement-granular blocks, normal
successor edges, and one exception edge per block pointing at the
innermost construct that would observe a raise there —
``try``/``except`` dispatch, a ``finally`` chain, a ``with`` cleanup,
or the function's virtual ``raise`` exit.  ``finally`` bodies are
lowered twice (once on the normal path, once on the exception path) so
a release in a ``finally`` sanitizes *both*; abrupt exits (``return``
/ ``break`` / ``continue``) unwind through every pending ``finally``
and ``with`` cleanup, exactly as the interpreter does.

The same CFGs carry :mod:`repro.verify.lockset`'s held-lock analysis:
``with-enter`` acquires, ``with-cleanup`` releases, and an exception
edge carries whatever was held before its block raised.

The module also hosts the small AST helpers (dotted names, ``self.X``
attributes, function iteration, annotations) that the call graph and
the lockset analyzer share, so both agree on what a call is called.
"""

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

#: Block kinds.  "stmt" blocks hold one simple statement; "branch"
#: blocks hold a compound statement's header expression (test / iter /
#: subject); "with-enter"/"with-cleanup" hold the ``ast.With`` whose
#: items they acquire/release; "def" marks a nested definition
#: (bound, not executed); the rest are structural.
_STRUCTURAL = ("entry", "exit", "raise", "join")


@dataclass
class Block:
    idx: int
    kind: str
    node: Optional[ast.AST] = None
    succ: List[int] = field(default_factory=list)
    #: Where an exception raised in this block lands (None only for
    #: the structural exit/raise blocks).
    exc: Optional[int] = None

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)


@dataclass
class CFG:
    qualname: str
    func: ast.AST  # FunctionDef | AsyncFunctionDef
    blocks: List[Block]
    entry: int
    exit: int
    raise_exit: int

    def block_exprs(self, block: Block) -> List[ast.AST]:
        """The AST nodes whose *expressions* execute in ``block``.

        Compound statements contribute only their headers here — their
        bodies live in their own blocks — so scanning a block never
        double-counts nested code.
        """
        if block.kind == "stmt":
            return [block.node] if block.node is not None else []
        if block.kind == "branch":
            return [block.node] if block.node is not None else []
        if block.kind in ("with-enter", "with-cleanup"):
            out: List[ast.AST] = []
            for item in block.node.items:
                out.append(item.context_expr)
                if block.kind == "with-enter" and item.optional_vars:
                    out.append(item.optional_vars)
            return out
        return []

    def can_reach(self, start: int, target: int,
                  stop: Callable[[Block], bool]) -> bool:
        """Is ``target`` reachable from ``start`` along normal *and*
        exception edges without expanding a block ``stop`` accepts?

        ``start``'s normal successors seed the walk — its own ``exc``
        edge is excluded (if ``start`` itself raises, whatever it was
        about to produce never existed); a stopping block is reached
        but not traversed through.
        """
        seen = {start}
        frontier = list(self.blocks[start].succ)
        while frontier:
            idx = frontier.pop()
            if idx in seen:
                continue
            seen.add(idx)
            if idx == target:
                return True
            block = self.blocks[idx]
            if stop(block):
                continue
            frontier.extend(self._successors(block))
        return False

    def _successors(self, block: Block) -> Iterator[int]:
        yield from block.succ
        if block.exc is not None:
            yield block.exc


@dataclass
class _Frame:
    """One enclosing construct an abrupt exit must unwind through."""

    kind: str  # "loop" | "finally" | "with"
    head: Optional[int] = None
    after: Optional[int] = None
    finalbody: Optional[Sequence[ast.stmt]] = None
    exc: Optional[int] = None
    with_node: Optional[ast.AST] = None


def _handler_exhaustive(handler: ast.AST) -> bool:
    """Does this ``except`` clause catch everything that matters?

    ``except Exception`` technically misses KeyboardInterrupt and
    SystemExit, but for resource-leak purposes code that catches
    Exception has made its cleanup decision — treating it as porous
    would flag every such guard.
    """
    if handler.type is None:
        return True
    name = dotted_name(handler.type)
    return name is not None and \
        name.rsplit(".", 1)[-1] in ("BaseException", "Exception")


class _Builder:
    def __init__(self, func: ast.AST, qualname: str) -> None:
        self.func = func
        self.blocks: List[Block] = []
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self.raise_exit = self._new("raise")
        self.frames: List[_Frame] = []
        ends = self._lower(func.body, [self.entry], self.raise_exit)
        self._connect(ends, self.exit)
        self.cfg = CFG(qualname, func, self.blocks, self.entry,
                       self.exit, self.raise_exit)

    # -- plumbing ----------------------------------------------------
    def _new(self, kind: str, node: Optional[ast.AST] = None,
             exc: Optional[int] = None) -> int:
        block = Block(len(self.blocks), kind, node, exc=exc)
        self.blocks.append(block)
        return block.idx

    def _connect(self, preds: Sequence[int], target: int) -> None:
        for pred in preds:
            if target not in self.blocks[pred].succ:
                self.blocks[pred].succ.append(target)

    # -- lowering ----------------------------------------------------
    def _lower(self, stmts: Sequence[ast.stmt], preds: List[int],
               exc: int) -> List[int]:
        for stmt in stmts:
            if not preds:
                break  # unreachable after return/raise/break
            preds = self._lower_stmt(stmt, preds, exc)
        return preds

    def _lower_stmt(self, stmt: ast.stmt, preds: List[int],
                    exc: int) -> List[int]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            block = self._new("def", stmt, exc)
            self._connect(preds, block)
            return [block]
        if isinstance(stmt, ast.Return):
            block = self._new("stmt", stmt, exc)
            self._connect(preds, block)
            ends = self._unwind([block], len(self.frames))
            self._connect(ends, self.exit)
            return []
        if isinstance(stmt, ast.Raise):
            block = self._new("stmt", stmt, exc)
            self._connect(preds, block)
            return []
        if isinstance(stmt, (ast.Break, ast.Continue)):
            block = self._new("stmt", stmt, exc)
            self._connect(preds, block)
            depth = len(self.frames)
            while depth and self.frames[depth - 1].kind != "loop":
                depth -= 1
            ends = self._unwind([block], len(self.frames), down_to=depth)
            if depth:  # malformed code outside a loop: drop the edge
                loop = self.frames[depth - 1]
                target = (loop.after if isinstance(stmt, ast.Break)
                          else loop.head)
                self._connect(ends, target)
            return []
        if isinstance(stmt, ast.If):
            branch = self._new("branch", stmt.test, exc)
            self._connect(preds, branch)
            ends = self._lower(stmt.body, [branch], exc)
            if stmt.orelse:
                ends = ends + self._lower(stmt.orelse, [branch], exc)
            else:
                ends = ends + [branch]
            return ends
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = (stmt.test if isinstance(stmt, ast.While)
                      else stmt.iter)
            head = self._new("branch", header, exc)
            after = self._new("join", None, exc)
            self._connect(preds, head)
            self.frames.append(_Frame("loop", head=head, after=after))
            body_ends = self._lower(stmt.body, [head], exc)
            self.frames.pop()
            self._connect(body_ends, head)
            else_ends = (self._lower(stmt.orelse, [head], exc)
                         if stmt.orelse else [head])
            self._connect(else_ends, after)
            return [after]
        if isinstance(stmt, ast.Try):
            return self._lower_try(stmt, preds, exc)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._lower_with(stmt, preds, exc)
        if isinstance(stmt, ast.Match):
            branch = self._new("branch", stmt.subject, exc)
            self._connect(preds, branch)
            ends: List[int] = [branch]
            for case in stmt.cases:
                ends = ends + self._lower(case.body, [branch], exc)
            return ends
        block = self._new("stmt", stmt, exc)
        self._connect(preds, block)
        return [block]

    def _lower_try(self, stmt: ast.Try, preds: List[int],
                   exc: int) -> List[int]:
        outer_exc = exc
        if stmt.finalbody:
            # The exception-path copy of the finally chain: exceptions
            # from the body/handlers land here, run it, and re-raise
            # outward.
            f_exc_join = self._new("join", None, outer_exc)
            f_exc_ends = self._lower(stmt.finalbody, [f_exc_join],
                                     outer_exc)
            self._connect(f_exc_ends, outer_exc)
            escape = f_exc_join
            self.frames.append(_Frame("finally",
                                      finalbody=stmt.finalbody,
                                      exc=outer_exc))
        else:
            escape = outer_exc
        if stmt.handlers:
            dispatch = self._new("join", None, None)
            body_exc = dispatch
        else:
            dispatch = None
            body_exc = escape
        body_ends = self._lower(stmt.body, list(preds), body_exc)
        if stmt.orelse:
            body_ends = self._lower(stmt.orelse, body_ends, escape)
        handler_ends: List[int] = []
        if dispatch is not None:
            # An exception no handler matches keeps propagating —
            # unless some handler is exhaustive (bare ``except:`` or
            # ``except (Base)Exception``), in which case nothing slips
            # past the dispatch.
            if not any(_handler_exhaustive(h) for h in stmt.handlers):
                self._connect([dispatch], escape)
            for handler in stmt.handlers:
                handler_ends.extend(
                    self._lower(handler.body, [dispatch], escape))
        ends = body_ends + handler_ends
        if stmt.finalbody:
            self.frames.pop()
            ends = self._lower(stmt.finalbody, ends, outer_exc)
        return ends

    def _lower_with(self, stmt: ast.AST, preds: List[int],
                    exc: int) -> List[int]:
        enter = self._new("with-enter", stmt, exc)
        self._connect(preds, enter)
        cleanup_exc = self._new("with-cleanup", stmt, exc)
        self._connect([cleanup_exc], exc)  # __exit__ then re-raise
        self.frames.append(_Frame("with", with_node=stmt, exc=exc))
        body_ends = self._lower(stmt.body, [enter], cleanup_exc)
        self.frames.pop()
        cleanup_norm = self._new("with-cleanup", stmt, exc)
        self._connect(body_ends, cleanup_norm)
        return [cleanup_norm]

    def _unwind(self, preds: List[int], depth: int,
                down_to: int = 0) -> List[int]:
        """Run pending finally/with cleanups from ``depth`` (exclusive
        top of stack) down to ``down_to``, innermost first."""
        for frame in reversed(self.frames[down_to:depth]):
            if frame.kind == "finally":
                preds = self._lower(list(frame.finalbody), preds,
                                    frame.exc)
            elif frame.kind == "with":
                cleanup = self._new("with-cleanup", frame.with_node,
                                    frame.exc)
                self._connect(preds, cleanup)
                preds = [cleanup]
        return preds


def build_cfg(func: ast.AST, qualname: str = "") -> CFG:
    """Lower one ``FunctionDef``/``AsyncFunctionDef`` to a CFG."""
    return _Builder(func, qualname or func.name).cfg


# -- shared AST helpers ----------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attr(node: ast.AST) -> Optional[str]:
    """``self.X`` → ``"X"``, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


@dataclass(frozen=True)
class FuncDecl:
    """One function/method definition found in a module tree."""

    qualname: str  # "Class.method", "func", "Class.method.inner"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional[str]  # enclosing class name, if a method
    parent: Optional[str]  # enclosing function qualname, if nested

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)


def child_blocks(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
    """The statement lists nested in a compound statement: bodies,
    ``else``/``finally`` blocks, ``except`` handlers, ``match`` cases."""
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if isinstance(block, list):
            yield block
    for handler in getattr(stmt, "handlers", []):
        yield handler.body
    for case in getattr(stmt, "cases", []):
        yield case.body


def iter_functions(tree: ast.Module) -> Iterator[FuncDecl]:
    """Every function in ``tree``, methods and nested defs included —
    also defs under an ``if``/``with``/``try``/loop of their scope."""

    def walk(body: Sequence[ast.stmt], prefix: str,
             cls: Optional[str], parent: Optional[str]
             ) -> Iterator[FuncDecl]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                yield FuncDecl(qual, stmt, cls, parent)
                yield from walk(stmt.body, f"{qual}.", cls, qual)
            elif isinstance(stmt, ast.ClassDef):
                yield from walk(stmt.body, f"{prefix}{stmt.name}.",
                                stmt.name, parent)
            else:
                for block in child_blocks(stmt):
                    yield from walk(block, prefix, cls, parent)

    yield from walk(tree.body, "", None, None)


def parse_annotation(node: Optional[ast.AST]) -> Optional[str]:
    """A class name out of an annotation: ``X``, ``"X"``,
    ``Optional[X]``, ``mod.X`` → ``"X"``; anything fancier → None."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("\"'").rsplit(".", 1)[-1] or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        name = dotted_name(node.value) or ""
        if name.rsplit(".", 1)[-1] == "Optional":
            return parse_annotation(node.slice)
    return None


def call_args(node: ast.Call) -> List[Tuple[Optional[str], ast.AST]]:
    """(keyword-or-None, value) pairs of a call, positional first."""
    out: List[Tuple[Optional[str], ast.AST]] = [
        (None, arg) for arg in node.args]
    out.extend((kw.arg, kw.value) for kw in node.keywords)
    return out
