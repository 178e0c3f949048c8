"""S6xx async-safety and S7xx resource-safety rule families.

Both families are *function summaries propagated over the call graph*:

- **S601** — a blocking call (file/socket I/O, ``time.sleep``, lock
  ``.acquire``, ``subprocess``) transitively reachable from an
  ``async def`` through plain call/await edges.  An executor hop
  (``run_in_executor`` / ``Executor.submit`` / ``Thread``) breaks the
  chain — that is the sanctioned way off the loop.  Findings land on
  the *frontier*: the async function whose own statement starts the
  blocking chain, with the chain spelled out in the message.
- **S602** — a call that builds a coroutine and discards it (the body
  never runs).
- **S603** — asyncio loop APIs touched from code that runs off-loop
  (a thread target or executor-shipped callable, transitively).
  Starting a *private* loop (``new_event_loop`` → ``run_until_complete``
  → ``run_forever``) and the ``*_threadsafe`` bridges are exempt; the
  coroutine handed to ``run_until_complete`` runs on-loop, so
  off-loop-ness does not propagate through it.
- **S701** — a file/socket/temp file acquired into a local and not
  released on some exception path, judged on the function's CFG
  (``finally`` and ``with`` cleanups sanitize; returning the resource
  or passing it to a callee that closes it transfers ownership —
  callee close summaries come from the same bottom-up fixpoint).
- **S702** — the S701 shape specialized to chaos-instrumented temp
  writes: a ``chaos_point`` crossing sits between ``mkstemp`` and the
  cleanup, so an injected fault leaks the very ``*.tmp`` file the
  soak gate hunts for.
"""

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow.callgraph import (CallGraph, CallSite,
                                           build_callgraph,
                                           solve_bottom_up)
from repro.analysis.flow.ir import CFG, Block, build_cfg, dotted_name
from repro.analysis.registry import LintFinding, SuppressionTable

# -- catalogs --------------------------------------------------------------

#: Dotted callables that block the calling thread (matched on
#: *external* sites only; resolved callees go through summaries).
_BLOCKING_DOTTED = {
    "open", "io.open", "os.open", "os.fsync",
    "time.sleep",
    "socket.create_connection", "socket.getaddrinfo",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "select.select", "urllib.request.urlopen",
}

#: Method names that block regardless of receiver.  Kept deliberately
#: tight: ``.wait``/``.result`` are ambiguous with their asyncio
#: namesakes and stay out; an *awaited* ``.acquire`` is the asyncio
#: lock, so only kind="call" sites match.
_BLOCKING_METHODS = {
    "acquire", "recv", "recv_into", "sendall", "accept", "connect",
    "makefile", "getresponse", "urlopen", "glob", "rglob", "iterdir",
    "read_text", "write_text", "read_bytes", "write_bytes", "open",
}

#: Call kinds that keep execution on the current thread/loop.
_ON_LOOP_KINDS = {"call", "await", "task"}

#: asyncio module functions that must run on the loop's thread.
_LOOP_TOUCH_DOTTED = {
    "asyncio.create_task", "asyncio.ensure_future",
    "asyncio.get_running_loop", "asyncio.get_event_loop",
}

#: Loop methods that are *safe* (or only meaningful) off-loop: the
#: thread-safe bridges plus the start/stop verbs of a private loop.
_LOOP_METHOD_EXEMPT = {
    "call_soon_threadsafe", "run_until_complete", "run_forever",
    "close", "is_running", "is_closed", "time", "stop",
    "add_signal_handler", "remove_signal_handler",
}

#: Resource constructors for S701 (dotted, external).
_RESOURCE_CTORS = {
    "open", "io.open", "os.open", "os.fdopen",
    "socket.socket", "socket.create_connection",
    "tempfile.mkstemp", "tempfile.NamedTemporaryFile",
    "tempfile.TemporaryFile", "gzip.open", "bz2.open", "lzma.open",
}
_TEMP_CTORS = {"tempfile.mkstemp", "tempfile.NamedTemporaryFile",
               "tempfile.TemporaryFile"}

#: Releasing method names on the resource itself.
_RELEASE_METHODS = {"close", "unlink", "release", "terminate"}

#: Module functions whose first argument is released/transferred.
_RELEASE_FUNCS = {"os.close", "os.unlink", "os.remove", "os.replace",
                  "os.rename", "os.fdopen", "shutil.move",
                  "contextlib.closing", "closing"}

_CHAOS_HOOKS = {"chaos_point", "chaos_point_async"}


def _short(fid: str) -> str:
    return fid.split("::", 1)[-1]


def _rel(fid: str) -> str:
    return fid.split("::", 1)[0]


# -- S601: blocking summaries ----------------------------------------------

#: Witness = (description, rel, line, chain-of-fids below this fn).
Witness = Tuple[str, str, int, Tuple[str, ...]]


def _direct_blocking(graph: CallGraph,
                     fid: str) -> Optional[Witness]:
    for site in sorted(graph.sites.get(fid, ()),
                       key=lambda s: s.line):
        if site.target is not None or site.kind == "executor":
            continue
        name = site.name
        if name in _BLOCKING_DOTTED:
            return (f"{name}(...)", _rel(fid), site.line, ())
        last = name.rsplit(".", 1)[-1]
        if "." in name and last in _BLOCKING_METHODS \
                and site.kind == "call":
            return (f"{name}(...)", _rel(fid), site.line, ())
        if (last == "join" and site.kind == "call" and "." in name
                and isinstance(site.node, ast.Call)
                and not site.node.args):
            return (f"{name}(...)", _rel(fid), site.line, ())
    return None


def _blocking_summaries(graph: CallGraph) -> Dict[str, Witness]:
    direct = {fid: _direct_blocking(graph, fid)
              for fid in graph.functions}

    def transfer(fid: str,
                 summaries: Dict[str, object]) -> Optional[Witness]:
        if direct[fid] is not None:
            return direct[fid]
        for site in sorted(graph.edges(fid, _ON_LOOP_KINDS),
                           key=lambda s: s.line):
            if graph.functions[site.target].is_async:
                # an async callee is its own frontier: its blocking
                # chain is reported inside it, not at every awaiter
                continue
            sub = summaries.get(site.target)
            if sub is not None:
                desc, rel, line, chain = sub
                return (desc, rel, line,
                        (site.target,) + chain[:3])
        return None

    solved = solve_bottom_up(graph, _ON_LOOP_KINDS, transfer)
    return {fid: w for fid, w in solved.items() if w is not None}


def _s601_findings(graph: CallGraph,
                   blocking: Dict[str, Witness]) -> List[LintFinding]:
    findings = []
    for fid, info in graph.functions.items():
        if not info.is_async:
            continue
        direct = _direct_blocking(graph, fid)
        if direct is not None:
            desc, _, line, _ = direct
            findings.append(LintFinding(
                "S601", info.rel, line,
                f"blocking call {desc} inside async def "
                f"{_short(fid)}; the event loop stalls until it "
                f"returns — hop through run_in_executor"))
        for site in graph.edges(fid, _ON_LOOP_KINDS):
            witness = blocking.get(site.target)
            if witness is None:
                continue
            if graph.functions[site.target].is_async:
                continue  # blame the frontier inside that coroutine
            desc, wrel, wline, chain = witness
            names = " -> ".join(
                _short(f) for f in (site.target,) + chain[:3])
            findings.append(LintFinding(
                "S601", info.rel, site.line,
                f"async def {_short(fid)} reaches blocking {desc} "
                f"({wrel}:{wline}) via {names}; hop through "
                f"run_in_executor or make the chain async"))
    return findings


# -- S602: discarded coroutines --------------------------------------------

def _s602_findings(graph: CallGraph) -> List[LintFinding]:
    findings = []
    for fid, sites in graph.sites.items():
        for site in sites:
            if (site.discarded and site.target is not None
                    and graph.functions[site.target].is_async):
                findings.append(LintFinding(
                    "S602", graph.functions[fid].rel, site.line,
                    f"{site.name}(...) builds a coroutine and "
                    f"discards it — the body never runs; await it "
                    f"or wrap it in asyncio.create_task"))
    return findings


# -- S603: off-loop asyncio touches ----------------------------------------

def off_loop_set(graph: CallGraph) -> Dict[str, str]:
    """fid -> description of how it ends up on a worker thread."""
    origins: Dict[str, str] = {}
    frontier: List[str] = []
    for fid, sites in graph.sites.items():
        for site in sites:
            if site.kind == "executor" and site.target is not None:
                target = graph.functions[site.target]
                if target.is_async or site.target in origins:
                    continue
                origins[site.target] = (
                    f"handed to a thread/executor at "
                    f"{_rel(fid)}:{site.line}")
                frontier.append(site.target)
    while frontier:
        fid = frontier.pop()
        for callee in graph.callees(fid, {"call"}):
            if callee in origins or graph.functions[callee].is_async:
                continue
            origins[callee] = f"called from off-loop {_short(fid)}"
            frontier.append(callee)
    return origins


def _loop_touch(site: CallSite) -> Optional[str]:
    if site.target is not None:
        return None
    name = site.name
    if name in _LOOP_TOUCH_DOTTED:
        return name
    if "." not in name:
        return None
    receiver, _, method = name.rpartition(".")
    receiver_last = receiver.rsplit(".", 1)[-1]
    if receiver_last in ("loop", "_loop") \
            and method not in _LOOP_METHOD_EXEMPT:
        return name
    return None


def _s603_findings(graph: CallGraph) -> List[LintFinding]:
    findings = []
    for fid, origin in off_loop_set(graph).items():
        info = graph.functions[fid]
        for site in graph.sites.get(fid, ()):
            if site.kind == "enters-loop":
                continue  # runs on the loop that call starts
            touched = _loop_touch(site)
            if touched is not None:
                findings.append(LintFinding(
                    "S603", info.rel, site.line,
                    f"{touched}(...) in {_short(fid)}, which runs "
                    f"off-loop ({origin}); asyncio state is not "
                    f"thread-safe — use call_soon_threadsafe or a "
                    f"threading primitive"))
    return findings


# -- S7: resource safety ---------------------------------------------------

#: Resource summary: (param names the function closes/releases,
#: whether it returns a resource it acquired).
ResourceSummary = Tuple[frozenset, bool]


def _param_names(info) -> List[str]:
    args = info.decl.node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    return names


def _positional_map(graph: CallGraph, site: CallSite,
                    call: ast.Call) -> List[Tuple[str, str]]:
    """(arg-name-passed, callee-param-name) for bare-Name positionals."""
    target = graph.functions.get(site.target or "")
    if target is None:
        return []
    params = _param_names(target)
    offset = 1 if target.decl.cls and params[:1] == ["self"] else 0
    out = []
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Name) and index + offset < len(params):
            out.append((arg.id, params[index + offset]))
    return out


class _ReleaseScanner:
    """Does a statement/expression release one of ``aliases``?"""

    def __init__(self, graph: CallGraph, fid: str,
                 summaries: Dict[str, object],
                 site_of: Dict[int, CallSite]) -> None:
        self.graph = graph
        self.fid = fid
        self.summaries = summaries
        self.site_of = site_of

    def releases(self, exprs: Sequence[ast.AST],
                 aliases: Set[str]) -> bool:
        for root in exprs:
            for node in ast.walk(root):
                if isinstance(node, ast.Call) and \
                        self._call_releases(node, aliases):
                    return True
                if isinstance(node, ast.Return) and \
                        self._mentions(node.value, aliases):
                    return True  # ownership transferred to the caller
                if isinstance(node, ast.Assign) and \
                        self._is_escape(node.value, aliases):
                    return True  # aliased/stored: out of scope here
            if isinstance(root, ast.Return) and \
                    self._mentions(root.value, aliases):
                return True
            if isinstance(root, ast.Assign) and \
                    self._is_escape(root.value, aliases):
                return True
        return False

    def _call_releases(self, node: ast.Call,
                       aliases: Set[str]) -> bool:
        dotted = dotted_name(node.func) or ""
        head, _, method = dotted.rpartition(".")
        if head in aliases and method in _RELEASE_METHODS:
            return True
        site = self.site_of.get(id(node))
        name = site.name if site is not None else dotted
        if name in _RELEASE_FUNCS or \
                name.rsplit(".", 1)[-1] == "closing":
            return any(isinstance(arg, ast.Name) and arg.id in aliases
                       for arg in node.args[:1])
        if site is not None and site.target is not None:
            summary = self.summaries.get(site.target)
            if summary is not None:
                closes = summary[0]
                for passed, param in _positional_map(
                        self.graph, site, node):
                    if passed in aliases and param in closes:
                        return True
        return False

    @staticmethod
    def _mentions(value: Optional[ast.AST],
                  aliases: Set[str]) -> bool:
        if value is None:
            return False
        return any(isinstance(n, ast.Name) and n.id in aliases
                   for n in ast.walk(value))

    @staticmethod
    def _is_escape(value: ast.AST, aliases: Set[str]) -> bool:
        if isinstance(value, ast.Name) and value.id in aliases:
            return True
        if isinstance(value, (ast.Tuple, ast.List)):
            return any(isinstance(e, ast.Name) and e.id in aliases
                       for e in value.elts)
        return False


def _acquisitions(graph: CallGraph, fid: str, cfg: CFG,
                  summaries: Dict[str, object],
                  site_of: Dict[int, CallSite]
                  ) -> List[Tuple[Block, Set[str], bool, str]]:
    """(block, alias-names, is-temp-file, ctor-name) per acquisition."""
    out = []
    for block in cfg.blocks:
        if block.kind != "stmt" or not isinstance(block.node,
                                                  ast.Assign):
            continue
        value = block.node.value
        if not isinstance(value, ast.Call):
            continue
        site = site_of.get(id(value))
        name = (site.name if site is not None
                else dotted_name(value.func)) or ""
        is_ctor = name in _RESOURCE_CTORS
        if not is_ctor and site is not None and site.target is not None:
            summary = summaries.get(site.target)
            if summary is not None and summary[1]:
                is_ctor = True  # callee returns a resource it opened
        if not is_ctor:
            continue
        targets = block.node.targets
        if len(targets) != 1:
            continue
        target = targets[0]
        aliases: Set[str] = set()
        if isinstance(target, ast.Name) and target.id != "_":
            aliases = {target.id}
        elif (isinstance(target, ast.Tuple)
              and name == "tempfile.mkstemp"
              and len(target.elts) == 2
              and isinstance(target.elts[1], ast.Name)):
            # (fd, path): the path is what leaks on disk; the fd is
            # conventionally consumed by os.fdopen immediately.
            aliases = {target.elts[1].id}
        if not aliases:
            continue
        out.append((block, aliases, name in _TEMP_CTORS, name))
    return out


def _resource_summaries(graph: CallGraph) -> Dict[str, object]:
    """Bottom-up (closes-params, returns-resource) summaries."""
    site_maps = {
        fid: {id(s.node): s for s in graph.sites.get(fid, ())}
        for fid in graph.functions}

    def transfer(fid: str,
                 summaries: Dict[str, object]) -> ResourceSummary:
        info = graph.functions[fid]
        scanner = _ReleaseScanner(graph, fid, summaries,
                                  site_maps[fid])
        params = {p for p in _param_names(info) if p != "self"}
        closes = set()
        returns = False
        acquired: Set[str] = set()
        for node in ast.walk(info.decl.node):
            if isinstance(node, ast.Call) and \
                    scanner._call_releases(node, params):
                closes |= {p for p in params
                           if scanner._call_releases(node, {p})}
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Call):
                site = site_maps[fid].get(id(node.value))
                name = (site.name if site else
                        dotted_name(node.value.func)) or ""
                sub = (summaries.get(site.target)
                       if site and site.target else None)
                if name in _RESOURCE_CTORS or (sub and sub[1]):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            acquired.add(tgt.id)
            if isinstance(node, ast.Return) and node.value is not None:
                if isinstance(node.value, ast.Call):
                    site = site_maps[fid].get(id(node.value))
                    name = (site.name if site else
                            dotted_name(node.value.func)) or ""
                    sub = (summaries.get(site.target)
                           if site and site.target else None)
                    if name in _RESOURCE_CTORS or (sub and sub[1]):
                        returns = True
                elif scanner._mentions(node.value, acquired):
                    returns = True
        return (frozenset(closes), returns)

    return solve_bottom_up(graph, {"call"}, transfer)


def _s7_findings(graph: CallGraph,
                 summaries: Dict[str, object]) -> List[LintFinding]:
    findings = []
    for fid, info in graph.functions.items():
        site_of = {id(s.node): s for s in graph.sites.get(fid, ())}
        cfg = build_cfg(info.decl.node, fid)
        acquisitions = _acquisitions(graph, fid, cfg, summaries,
                                     site_of)
        if not acquisitions:
            continue
        scanner = _ReleaseScanner(graph, fid, summaries, site_of)
        for block, aliases, is_temp, ctor in acquisitions:
            leaked, chaos = _leak_walk(cfg, block, aliases, scanner)
            if not leaked:
                continue
            what = ("temp file" if is_temp else
                    "socket" if "socket" in ctor else "file handle")
            if is_temp and chaos is not None:
                findings.append(LintFinding(
                    "S702", info.rel, block.line,
                    f"{ctor}(...) temp file can leak through the "
                    f"chaos fault path — {chaos} may raise before "
                    f"cleanup; unlink it on the exception path"))
            else:
                findings.append(LintFinding(
                    "S701", info.rel, block.line,
                    f"{what} from {ctor}(...) is not released when "
                    f"a later statement raises; close it in a "
                    f"finally block or use 'with'"))
    return findings


def _leak_walk(cfg: CFG, start: Block, aliases: Set[str],
               scanner: _ReleaseScanner
               ) -> Tuple[bool, Optional[str]]:
    """DFS from the acquisition: can an exception escape the function
    before any release?  Returns (leaked, chaos-call-name-in-region).
    """
    seen: Set[int] = {start.idx}
    frontier = list(cfg.blocks[start.idx].succ)
    leaked = False
    chaos: Optional[str] = None
    while frontier:
        idx = frontier.pop()
        if idx in seen:
            continue
        seen.add(idx)
        if idx == cfg.raise_exit:
            leaked = True
            continue
        block = cfg.blocks[idx]
        exprs = cfg.block_exprs(block)
        if scanner.releases(exprs, aliases):
            continue
        if chaos is None:
            for root in exprs:
                for node in ast.walk(root):
                    if isinstance(node, ast.Call):
                        name = dotted_name(node.func) or ""
                        if name.rsplit(".", 1)[-1] in _CHAOS_HOOKS:
                            chaos = f"{name} (line {node.lineno})"
        frontier.extend(block.succ)
        if block.exc is not None:
            frontier.append(block.exc)
    return leaked, chaos


# -- entry point -----------------------------------------------------------

def analyze_modules(modules: Sequence[Tuple[str, ast.Module]],
                    tables: Optional[Dict[str,
                                          SuppressionTable]] = None,
                    package: str = "repro") -> List[LintFinding]:
    """Run the S6/S7 families over (rel_path, tree) pairs."""
    graph = build_callgraph(modules, package=package)
    blocking = _blocking_summaries(graph)
    resources = _resource_summaries(graph)
    raw = (_s601_findings(graph, blocking)
           + _s602_findings(graph)
           + _s603_findings(graph)
           + _s7_findings(graph, resources))
    tables = tables or {}
    findings: List[LintFinding] = []
    seen: Set[Tuple[str, int, str]] = set()
    for finding in raw:
        key = (finding.path, finding.line, finding.rule)
        if key in seen:
            continue
        seen.add(key)
        table = tables.get(finding.path)
        if table is not None and table.active(finding.rule,
                                              finding.line):
            continue
        findings.append(finding)
    findings.sort(key=LintFinding.sort_key)
    return findings


def analyze_source(source: str, rel_path: str,
                   package: str = "repro") -> List[LintFinding]:
    """Single-module convenience entry (tests, tooling)."""
    tree = ast.parse(source, filename=rel_path)
    tables = {rel_path: SuppressionTable.from_source(source)}
    return analyze_modules([(rel_path, tree)], tables=tables,
                           package=package)
