"""Run results and the paper's SMT-Efficiency metric (Section 6.4).

SMT-Efficiency of a thread = IPC of the thread in the evaluated
configuration divided by its IPC running alone, single-threaded, on the
base machine.  The figure-of-merit for a workload is the arithmetic mean
over its logical threads — Snavely & Tullsen's weighted speedup.
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class Termination(enum.Enum):
    """How a machine run ended (the robustness taxonomy).

    The paper's SRT/CRT designs are detection-only; a wedged pipeline is
    as real an outcome as a store mismatch, so every run carries an
    explicit termination class instead of silently truncating:

    - ``DONE``          — every measured thread reached its target (or
      halted) and the machine drained cleanly;
    - ``CYCLE_LIMIT``   — the cycle budget (or the post-halt drain grace
      window) expired before the targets were met;
    - ``HUNG``          — the forward-progress watchdog saw *no* retirement
      and no speculative activity across its window: a true deadlock
      (e.g. LVQ slack exhaustion, store-queue starvation);
    - ``LIVELOCK``      — no measured retirement, but the machine kept
      churning (squashes, misfetches, spinning unmeasured threads);
    - ``RECOVERED``     — one or more SRTR-style rollbacks occurred and
      the run still completed (transient fault corrected);
    - ``UNRECOVERABLE`` — rollback-and-replay kept re-detecting faults
      until the retry budget ran out (permanent fault or corrupted
      checkpoint).
    """

    DONE = "done"
    CYCLE_LIMIT = "cycle-limit"
    HUNG = "hung"
    LIVELOCK = "livelock"
    RECOVERED = "recovered"
    UNRECOVERABLE = "unrecoverable"

    @property
    def is_wedged(self) -> bool:
        return self in (Termination.HUNG, Termination.LIVELOCK)


@dataclass
class ThreadResult:
    """Measured outcome for one *logical* thread (program)."""

    name: str
    retired: int
    cycles: int              # cycle at which this thread hit its target

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0


@dataclass
class FaultEvent:
    """A detected redundancy violation (output mismatch / divergence)."""

    cycle: int
    kind: str
    thread: int
    detail: str = ""


@dataclass
class RunResult:
    """Everything a machine run produced."""

    kind: str                         # machine kind: base/srt/lockstep/crt
    cycles: int                       # total cycles simulated
    threads: List[ThreadResult]       # one per logical thread
    fault_events: List[FaultEvent] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)
    #: How the run ended (never silently truncated).
    termination: Termination = Termination.DONE
    #: Watchdog forensics (a plain dict, see repro.recovery.watchdog) —
    #: populated when the run ended HUNG/LIVELOCK.
    hang_report: Optional[Dict[str, object]] = None
    #: SRTR recovery summary (repro.recovery.checkpoint) when rollbacks
    #: happened or recovery mode was enabled.
    recovery: Optional[Dict[str, object]] = None
    #: True when the post-halt drain grace window expired with stores
    #: still queued (the final memory image may be incomplete).
    drain_truncated: bool = False

    def ipc_of(self, name: str) -> float:
        for thread in self.threads:
            if thread.name == name:
                return thread.ipc
        raise KeyError(f"no logical thread named {name!r}")

    def ipc_per_logical_thread(self) -> Dict[str, float]:
        return {t.name: t.ipc for t in self.threads}

    @property
    def total_ipc(self) -> float:
        return sum(t.ipc for t in self.threads)

    @property
    def faults_detected(self) -> int:
        return len(self.fault_events)

    @property
    def completed(self) -> bool:
        """Did every measured thread reach its target?"""
        return self.termination in (Termination.DONE, Termination.RECOVERED)

    def to_dict(self) -> Dict[str, object]:
        """JSON-able structured form (serve jobs, machine consumers).

        Deterministic by construction — no wall-clock fields — so the
        serve layer can cache it content-addressed.
        """
        return {
            "kind": self.kind,
            "cycles": self.cycles,
            "termination": self.termination.value,
            "threads": [
                {"name": t.name, "retired": t.retired, "cycles": t.cycles,
                 "ipc": t.ipc}
                for t in self.threads
            ],
            "fault_events": [
                {"cycle": e.cycle, "kind": e.kind, "thread": e.thread,
                 "detail": e.detail}
                for e in self.fault_events
            ],
            "stats": dict(self.stats),
            "hang_report": self.hang_report,
            "recovery": self.recovery,
            "drain_truncated": self.drain_truncated,
        }


def smt_efficiency(result: RunResult,
                   baseline_ipc: Dict[str, float]) -> Dict[str, float]:
    """Per-logical-thread SMT-Efficiency against single-thread base IPCs."""
    efficiencies: Dict[str, float] = {}
    for thread in result.threads:
        base = baseline_ipc.get(thread.name)
        if base is None:
            raise KeyError(f"no baseline IPC for {thread.name!r}")
        efficiencies[thread.name] = thread.ipc / base if base else 0.0
    return efficiencies


def mean_smt_efficiency(result: RunResult,
                        baseline_ipc: Dict[str, float]) -> float:
    """Arithmetic mean of per-thread efficiencies (weighted speedup)."""
    values = smt_efficiency(result, baseline_ipc)
    return sum(values.values()) / len(values) if values else 0.0


def arithmetic_mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0

