"""Opt-in per-stage wall-clock profiling of the simulator hot loop.

The determinism linter (S102) bans wall-clock reads inside the cycle
layers, and the run loop is the hottest code in the repo — so the
profiler *observes the loop from outside* instead of instrumenting it:
:meth:`StageProfiler.run` hands ``Machine.run`` a step that walks
``Machine.phases`` — the same table ``Machine.step`` walks — with a
``perf_counter`` fence after every phase.  Disarmed overhead is
therefore literally zero (``benchmarks/test_campaign_throughput.py``
holds the whole disarmed obs surface under 2% of per-task cost), and a
profiled run returns the identical :class:`RunResult` by construction
(pinned by ``tests/test_obs_profile.py`` and
``tests/test_golden_runs.py``).

Time is kept per phase, each named after its method (:func:`phase_name`)
and summed over cores: ``inject``, ``writeback``, ``retire``,
``drain``, ``issue``, ``insert``, ``rename``, ``deliver``, ``fetch``,
``verify``, ``tick`` (the memory hierarchy) and ``advance``.  Each
stage's time is the sum of the phases the table tags with it (the
paper's pipeline vocabulary): ``fetch`` — instruction supply;
``queue`` — writeback, issue, queue insert, rename and the fault
injector; ``verify`` — RMT output comparison, recovery, and advancing
the cycle under the watchdog; ``commit`` — retirement, store drain and
the memory hierarchy.  ``total_s`` spans the whole ``Machine.run`` call
after warm-up, including the post-halt drain, which runs unprofiled.
"""

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.metrics import RunResult

#: Stage names, in presentation order.
STAGES = ("fetch", "queue", "verify", "commit")


def phase_name(phase: Callable[[int], None]) -> str:
    """A phase's row: its method's name without leading underscores
    (``Core._writeback`` is ``writeback``, ``MemoryHierarchy.tick``
    is ``tick``)."""
    return phase.__name__.lstrip("_")


class StageProfiler:
    """Observes a machine's run loop, attributing time to its phases and
    pipeline stages.

    Usage::

        profiler = StageProfiler()
        result = profiler.run(machine, max_instructions=2000, warmup=500)
        print(profiler.report())

    ``phase_seconds`` maps each phase name to attributed wall time,
    summed over cores, and ``seconds`` each stage to the sum of its
    phases; ``cycles`` is the number of profiled cycles; ``overhead_s``
    is run time not attributed to any phase (the fences themselves,
    loop control, and arming and finishing the run).
    """

    def __init__(self) -> None:
        self.phase_seconds: Dict[str, float] = {}
        #: The stage each phase name is charged to.
        self.phase_stages: Dict[str, str] = {}
        self.cycles = 0
        self.total_s = 0.0

    # -- driving -----------------------------------------------------------
    def run(self, machine, max_instructions: int = 10_000,
            max_cycles: Optional[int] = None,
            warmup: int = 0) -> RunResult:
        """``machine.run`` with per-phase timing; identical result."""
        if warmup:
            machine.warm(warmup)
        phases = machine.phases
        names = [phase_name(phase) for _, phase in phases]
        for (stage, _), name in zip(phases, names):
            if self.phase_stages.setdefault(name, stage) != stage:
                raise ValueError(f"phase {name!r} is tagged both "
                                 f"{self.phase_stages[name]!r} and "
                                 f"{stage!r}")
        spent = [0.0] * len(phases)
        start = time.perf_counter()
        result = machine.run(max_instructions, max_cycles,
                             step=self._timed_step(machine, spent))
        self.total_s += time.perf_counter() - start
        for name, seconds in zip(names, spent):
            self.phase_seconds[name] = (self.phase_seconds.get(name, 0.0)
                                        + seconds)
        return result

    def _timed_step(self, machine,
                    spent: List[float]) -> Callable[[], None]:
        """``machine.step`` with a fence after every phase, adding each
        phase's time to ``spent`` at its position in the table."""
        calls = tuple(enumerate(phase for _, phase in machine.phases))
        clock = time.perf_counter

        def step() -> None:
            now = machine.now
            last = clock()
            for index, phase in calls:
                phase(now)
                fence = clock()
                spent[index] += fence - last
                last = fence
            self.cycles += 1

        return step

    # -- reporting ---------------------------------------------------------
    @property
    def seconds(self) -> Dict[str, float]:
        """Per-stage attributed time: the sum of its phases' times."""
        seconds = dict.fromkeys(STAGES, 0.0)
        for name, spent in self.phase_seconds.items():
            seconds[self.phase_stages[name]] += spent
        return seconds

    @property
    def attributed_s(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def overhead_s(self) -> float:
        """Run time not attributed to a phase (fences, loop control)."""
        return max(0.0, self.total_s - self.attributed_s)

    def shares(self) -> Dict[str, float]:
        """Per-stage fraction of attributed time (sums to ~1.0)."""
        total = self.attributed_s
        seconds = self.seconds
        if not total:
            return {stage: 0.0 for stage in STAGES}
        return {stage: seconds[stage] / total for stage in STAGES}

    def rows(self) -> List[Tuple[str, float, float, float]]:
        """(stage, seconds, share, ns/cycle) rows, presentation order."""
        return self._rows(self.seconds)

    def phase_rows(self) -> List[Tuple[str, float, float, float]]:
        """(phase, seconds, share, ns/cycle) rows, in the order of the
        first profiled run's phase table."""
        return self._rows(self.phase_seconds)

    def _rows(self, seconds: Dict[str, float]
              ) -> List[Tuple[str, float, float, float]]:
        total = self.attributed_s or 1.0
        per_cycle = self.cycles or 1
        return [(name, spent, spent / total, spent / per_cycle * 1e9)
                for name, spent in seconds.items()]

    def report(self) -> str:
        lines = [f"stage profile: {self.cycles} cycles, "
                 f"{self.attributed_s * 1e3:.1f} ms attributed "
                 f"(+{self.overhead_s * 1e3:.1f} ms loop overhead)"]
        for stage, seconds, share, ns in self.rows():
            lines.append(f"  {stage:<7s} {seconds * 1e3:9.2f} ms  "
                         f"{share * 100:5.1f}%  {ns:8.0f} ns/cycle")
        lines.append("phase profile (summed over cores):")
        for name, seconds, share, ns in self.phase_rows():
            lines.append(f"  {name:<9s} {self.phase_stages[name]:<6s} "
                         f"{seconds * 1e3:9.2f} ms  {share * 100:5.1f}%  "
                         f"{ns:8.0f} ns/cycle")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        seconds = self.seconds
        return {
            "cycles": self.cycles,
            "seconds": {stage: round(seconds[stage], 9)
                        for stage in STAGES},
            "shares": {stage: round(share, 6)
                       for stage, share in self.shares().items()},
            "phases": {name: {"stage": self.phase_stages[name],
                              "seconds": round(spent, 9)}
                       for name, spent in self.phase_seconds.items()},
            "overhead_s": round(self.overhead_s, 9),
        }
