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

Each phase is charged to the stage the table tags it with (the paper's
pipeline vocabulary): ``fetch`` — instruction supply; ``queue`` —
writeback, issue, queue insert, rename and the fault injector;
``verify`` — RMT output comparison, recovery, and advancing the cycle
under the watchdog; ``commit`` — retirement, store drain and the
memory hierarchy.  ``total_s`` spans the whole ``Machine.run`` call
after warm-up, including the post-halt drain, which runs unprofiled.
"""

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.metrics import RunResult

#: Stage names, in presentation order.
STAGES = ("fetch", "queue", "verify", "commit")


class StageProfiler:
    """Observes a machine's run loop, attributing time to pipeline stages.

    Usage::

        profiler = StageProfiler()
        result = profiler.run(machine, max_instructions=2000, warmup=500)
        print(profiler.report())

    ``seconds`` maps each stage to attributed wall time; ``cycles`` is
    the number of profiled cycles; ``overhead_s`` is run time not
    attributed to any stage (the fences themselves, loop control, and
    arming and finishing the run).
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {stage: 0.0 for stage in STAGES}
        self.cycles = 0
        self.total_s = 0.0

    # -- driving -----------------------------------------------------------
    def run(self, machine, max_instructions: int = 10_000,
            max_cycles: Optional[int] = None,
            warmup: int = 0) -> RunResult:
        """``machine.run`` with per-stage timing; identical result."""
        if warmup:
            machine.warm(warmup)
        start = time.perf_counter()
        result = machine.run(max_instructions, max_cycles,
                             step=self._timed_step(machine))
        self.total_s += time.perf_counter() - start
        return result

    def _timed_step(self, machine) -> Callable[[], None]:
        """``machine.step`` with a fence after every phase."""
        phases = machine.phases
        seconds = self.seconds
        clock = time.perf_counter

        def step() -> None:
            now = machine.now
            last = clock()
            for stage, phase in phases:
                phase(now)
                fence = clock()
                seconds[stage] += fence - last
                last = fence
            self.cycles += 1

        return step

    # -- reporting ---------------------------------------------------------
    @property
    def attributed_s(self) -> float:
        return sum(self.seconds.values())

    @property
    def overhead_s(self) -> float:
        """Run time not attributed to a stage (fences, loop control)."""
        return max(0.0, self.total_s - self.attributed_s)

    def shares(self) -> Dict[str, float]:
        """Per-stage fraction of attributed time (sums to ~1.0)."""
        total = self.attributed_s
        if not total:
            return {stage: 0.0 for stage in STAGES}
        return {stage: self.seconds[stage] / total for stage in STAGES}

    def rows(self) -> List[Tuple[str, float, float, float]]:
        """(stage, seconds, share, ns/cycle) rows, presentation order."""
        shares = self.shares()
        per_cycle = self.cycles or 1
        return [(stage, self.seconds[stage], shares[stage],
                 self.seconds[stage] / per_cycle * 1e9)
                for stage in STAGES]

    def report(self) -> str:
        lines = [f"stage profile: {self.cycles} cycles, "
                 f"{self.attributed_s * 1e3:.1f} ms attributed "
                 f"(+{self.overhead_s * 1e3:.1f} ms loop overhead)"]
        for stage, seconds, share, ns in self.rows():
            lines.append(f"  {stage:<7s} {seconds * 1e3:9.2f} ms  "
                         f"{share * 100:5.1f}%  {ns:8.0f} ns/cycle")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "cycles": self.cycles,
            "seconds": {stage: round(self.seconds[stage], 9)
                        for stage in STAGES},
            "shares": {stage: round(share, 6)
                       for stage, share in self.shares().items()},
            "overhead_s": round(self.overhead_s, 9),
        }
