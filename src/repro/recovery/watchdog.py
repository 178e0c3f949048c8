"""Forward-progress watchdog and hang forensics.

``Machine.step`` feeds the watchdog one observation per cycle; every
``interval`` cycles it fingerprints the machine (per-thread retirement,
speculative-activity counters, queue occupancies).  If *no measured
thread* retires an instruction across ``window`` cycles the watchdog
renders a verdict:

- :attr:`~repro.core.metrics.Termination.HUNG` — nothing speculative is
  moving either: a true deadlock (LVQ slack exhaustion, store-queue
  starvation, a membar that can never observe its stores drained);
- :attr:`~repro.core.metrics.Termination.LIVELOCK` — the pipeline keeps
  churning (squashes, misfetches, unmeasured hardware threads spinning)
  without ever committing measured work.

Either way it emits a :class:`HangReport`: the head-of-ROB blocker uop
per hardware thread, every queue occupancy (IQ halves, LQ/SQ, ROB,
LVQ/LPQ, comparator backlog, pair slack) and the stall counters the
pipeline maintains (membar blocks, partial-store blocks, retirement
vetoes).  The report — not a silently truncated ``RunResult`` — is what
a fault-injection campaign records for a wedged run.
"""

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.metrics import Termination

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import Machine


@dataclass
class Fingerprint:
    """One watchdog observation of the machine's progress state."""

    cycle: int
    #: Retired count per *measured* logical thread (progress signal).
    measured: Dict[str, int] = field(default_factory=dict)
    #: Speculative-activity counters (livelock-vs-deadlock evidence):
    #: total retirement of every hardware thread, squashes, misfetches.
    activity: Dict[str, int] = field(default_factory=dict)
    #: Queue occupancies (forensic detail).
    queues: Dict[str, int] = field(default_factory=dict)
    #: Head-of-ROB blocker description per hardware thread.
    blockers: Dict[str, str] = field(default_factory=dict)
    #: Cumulative stall counters (membar / partial-store / retire vetoes).
    stalls: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "cycle": self.cycle,
            "measured": dict(self.measured),
            "activity": dict(self.activity),
            "queues": dict(self.queues),
            "blockers": dict(self.blockers),
            "stalls": dict(self.stalls),
        }


@dataclass
class HangReport:
    """Structured forensics for a HUNG/LIVELOCK verdict."""

    verdict: str                     # Termination.HUNG/.LIVELOCK value
    cycle: int                       # cycle the verdict was rendered
    window: int                      # no-progress window that expired
    stalled_since: int               # last cycle a measured thread retired
    fingerprint: Dict[str, object]   # final Fingerprint.to_dict()
    activity_delta: Dict[str, int]   # counters that moved inside the window

    def to_dict(self) -> Dict[str, object]:
        return {
            "verdict": self.verdict,
            "cycle": self.cycle,
            "window": self.window,
            "stalled_since": self.stalled_since,
            "fingerprint": dict(self.fingerprint),
            "activity_delta": dict(self.activity_delta),
        }

    def format(self) -> str:
        """Human-readable multi-line forensics dump."""
        lines = [
            f"# {self.verdict.upper()} at cycle {self.cycle} "
            f"(no measured retirement since cycle {self.stalled_since}, "
            f"window {self.window})",
        ]
        if self.activity_delta:
            moved = ", ".join(f"{key}+{delta}" for key, delta
                              in sorted(self.activity_delta.items()))
            lines.append(f"  speculative activity in window: {moved}")
        else:
            lines.append("  speculative activity in window: none "
                         "(true deadlock)")
        blockers = self.fingerprint.get("blockers", {})
        if blockers:
            lines.append("  head-of-ROB blockers:")
            for name in sorted(blockers):
                lines.append(f"    {name:<16s} {blockers[name]}")
        queues = self.fingerprint.get("queues", {})
        if queues:
            lines.append("  queue occupancies:")
            for name in sorted(queues):
                lines.append(f"    {name:<28s} {queues[name]}")
        stalls = self.fingerprint.get("stalls", {})
        nonzero = {k: v for k, v in stalls.items() if v}
        if nonzero:
            lines.append("  stall counters:")
            for name in sorted(nonzero):
                lines.append(f"    {name:<28s} {nonzero[name]}")
        return "\n".join(lines)


def _describe_head(thread) -> str:
    """One-line description of the uop blocking a thread's ROB head."""
    if thread.done:
        return "(halted)"
    if not thread.rob:
        return "(rob empty — front end starved)"
    uop = thread.rob[0]
    return (f"seq={uop.seq} pc={uop.pc} {uop.instr.op.name} "
            f"state={uop.state.name.lower()}")


class ProgressWatchdog:
    """Watches a running machine for loss of forward progress."""

    def __init__(self, machine: "Machine", interval: int = 64,
                 window: int = 4096) -> None:
        self.machine = machine
        self.interval = max(1, interval)
        self.window = max(self.interval, window)
        self.verdict: Optional[Termination] = None
        self.report: Optional[HangReport] = None
        self.last_fingerprint: Optional[Fingerprint] = None
        self._baseline: Optional[Fingerprint] = None

    # -- fingerprinting ----------------------------------------------------
    def fingerprint(self, now: int) -> Fingerprint:
        machine = self.machine
        fp = Fingerprint(cycle=now)
        for name, hw in machine._measured.items():
            fp.measured[name] = hw.stats.retired
        for core_id, core in machine.reported_cores:
            prefix = f"core{core_id}."
            fp.activity[prefix + "retired"] = core.stats.retired_total
            fp.activity[prefix + "squashes"] = core.stats.squashes
            fp.queues[prefix + "iq.half0"] = core.qbox.occupancy(0)
            fp.queues[prefix + "iq.half1"] = core.qbox.occupancy(1)
            for thread in core.threads:
                tname = f"{prefix}t{thread.tid}({thread.role.value})"
                ts = thread.stats
                fp.activity[tname + ".misfetches"] = ts.misfetches
                fp.queues[tname + ".rob"] = len(thread.rob)
                fp.queues[tname + ".lq"] = len(thread.load_queue)
                fp.queues[tname + ".sq"] = len(thread.store_queue)
                fp.queues[tname + ".rmb"] = thread.rmb_load()
                fp.blockers[tname] = _describe_head(thread)
                fp.stalls[tname + ".membar_blocks"] = ts.membar_block_cycles
                fp.stalls[tname + ".partial_store_blocks"] = (
                    ts.partial_store_block_cycles)
                fp.stalls[tname + ".retire_stalls"] = ts.retire_stall_cycles
        controller = getattr(machine, "controller", None)
        if controller is not None:
            for pair in controller.pairs:
                prefix = f"pair.{pair.name}."
                fp.queues[prefix + "lvq"] = len(pair.lvq)
                fp.queues[prefix + "lvq_capacity"] = pair.lvq.capacity
                fp.queues[prefix + "lpq"] = len(pair.lpq)
                fp.queues[prefix + "lpq_pending"] = len(pair.aggregator)
                fp.queues[prefix + "comparator_backlog"] = (
                    len(pair.comparator))
                fp.queues[prefix + "slack"] = (pair.leading.stats.retired
                                               - pair.trailing.stats.retired)
        return fp

    # -- per-cycle observation ---------------------------------------------
    def observe(self, now: int) -> Optional[Termination]:
        """Called once per machine cycle; returns a verdict when wedged."""
        if self.verdict is not None:
            return self.verdict
        if now % self.interval:
            return None
        # A machine whose measured threads all finished cannot hang.
        if all(t.stats.done_cycle is not None or t.done
               for t in self.machine._measured.values()):
            return None
        fp = self.fingerprint(now)
        self.last_fingerprint = fp
        if self._baseline is None or self._progressed(fp):
            self._baseline = fp
            return None
        if now - self._baseline.cycle < self.window:
            return None
        delta = self._activity_delta(fp)
        self.verdict = (Termination.LIVELOCK if delta
                        else Termination.HUNG)
        # Observability: wedge verdicts are rare, high-signal events.
        from repro.obs.metrics import registry
        registry().counter(
            f"recovery.watchdog.{self.verdict.value}").inc()
        self.report = HangReport(
            verdict=self.verdict.value,
            cycle=now,
            window=self.window,
            stalled_since=self._baseline.cycle,
            fingerprint=fp.to_dict(),
            activity_delta=delta,
        )
        return self.verdict

    def _progressed(self, fp: Fingerprint) -> bool:
        base = self._baseline
        return any(fp.measured.get(name, 0) > count
                   for name, count in base.measured.items()) or \
            any(name not in base.measured for name in fp.measured)

    def _activity_delta(self, fp: Fingerprint) -> Dict[str, int]:
        base = self._baseline
        delta: Dict[str, int] = {}
        for key, value in fp.activity.items():
            moved = value - base.activity.get(key, 0)
            if moved > 0:
                delta[key] = moved
        return delta

    # -- classification core (unit-testable without a machine) -------------
    @staticmethod
    def classify(history: List[Fingerprint], window: int) -> Optional[
            Termination]:
        """Pure verdict function over a fingerprint sequence.

        Returns None while measured progress exists inside ``window``;
        HUNG when both measured counts and activity counters are frozen;
        LIVELOCK when activity moved but measured counts did not.
        """
        if len(history) < 2:
            return None
        last = history[-1]
        baseline = None
        for fp in reversed(history[:-1]):
            if any(last.measured.get(name, 0) > count
                   for name, count in fp.measured.items()):
                return None  # progress inside the examined span
            baseline = fp
            if last.cycle - fp.cycle >= window:
                break
        if baseline is None or last.cycle - baseline.cycle < window:
            return None
        moved = any(value > baseline.activity.get(key, 0)
                    for key, value in last.activity.items())
        return Termination.LIVELOCK if moved else Termination.HUNG
