"""repro.analysis.flow — interprocedural call-graph/dataflow engine.

The simlint passes (S1–S4) judge one function or one class at a time;
the defects that actually take the serve daemon down cross function
boundaries — a ``time.sleep`` three calls below an ``async def``, a
temp file whose cleanup lives in a caller that never runs on the
exception path.  This package follows the flow:

- :mod:`repro.analysis.flow.ir` — per-function control-flow graphs
  lowered from :mod:`ast`, with try/finally/with exception edges, plus
  the shared AST helpers (dotted names, function iteration) the other
  analyzers build on.
- :mod:`repro.analysis.flow.callgraph` — module-granular call-graph
  construction (imports, ``self`` methods, ctor-assigned members),
  Tarjan SCC condensation, and a generic bottom-up summary fixpoint.
- :mod:`repro.analysis.flow.rules` — the S6xx async-safety and S7xx
  resource-safety rule families, computed as function summaries
  propagated over the call graph, and :func:`off_loop_set`, the
  functions that end up on a worker thread.

Entry point: :func:`repro.analysis.flow.rules.analyze_modules`, wired
into ``repro lint`` next to the simlint pass.  The same front end
carries the lockset analyzer (:mod:`repro.verify.lockset`, S501–S503):
its held locks come from these CFGs, its call-through lock-order edges
from one :func:`solve_bottom_up` summary, and its off-loop methods
from :func:`off_loop_set`.
"""

from repro.analysis.flow.callgraph import (CallGraph, build_callgraph,
                                           solve_bottom_up)
from repro.analysis.flow.ir import CFG, build_cfg, dotted_name, self_attr
from repro.analysis.flow.rules import analyze_modules, off_loop_set

__all__ = ["CFG", "CallGraph", "analyze_modules", "build_callgraph",
           "build_cfg", "dotted_name", "off_loop_set", "self_attr",
           "solve_bottom_up"]
