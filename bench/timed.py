"""Layer timing from outside: subclasses that wrap the public entry points.

Nothing here changes what the program computes.  :class:`TimedRunner`
splits :meth:`Runner.run` into its three public steps — make the
machine, ``Machine.warm``, ``Machine.run(warmup=0)``, the order
``Machine.run(warmup=w)`` uses itself — and times each; in a traced run
it drives the cycle loop through :class:`repro.obs.profile.StageProfiler`
instead, which returns the identical ``RunResult``.
:class:`TimedEngine` times the campaign engine's planning step.
"""

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign.engine import CampaignEngine
from repro.core.metrics import RunResult
from repro.harness.runner import Runner
from repro.isa.program import Program
from repro.obs.profile import StageProfiler

from bench.spans import NullRecorder


@dataclass
class RunSample:
    """One ``TimedRunner.run`` call."""

    kind: str
    start: float
    seconds: float
    warm_s: float
    result: RunResult
    profiler: Optional[StageProfiler] = None


@dataclass
class TimedRunner(Runner):
    """A :class:`Runner` that times every machine run it makes.

    ``shared`` maps profile names to programs generated (and gated)
    once, in set-up, so the timed section never generates; ``profile``
    drives runs through the stage profiler; ``spans`` records a span
    per step in a traced run.
    """

    shared: Dict[str, Program] = field(default_factory=dict, repr=False)
    profile: bool = False
    spans: object = field(default_factory=NullRecorder, repr=False)
    samples: List[RunSample] = field(default_factory=list, repr=False)

    def program(self, name: str, copy_index: int = 0) -> Program:
        program = self.shared.get(name) if copy_index == 0 else None
        if program is None:
            return super().program(name, copy_index)
        self._programs.setdefault((name, 0), program)
        self._by_name.setdefault(program.name, program)
        return program

    def run(self, kind: str, spec, config=None, **kwargs) -> RunResult:
        start = time.perf_counter()
        with self.spans.span("runner.run", kind=kind):
            with self.spans.span("core.make"):
                machine = self.make(kind, spec, config, **kwargs)
            warm_start = time.perf_counter()
            if self.warmup:
                with self.spans.span("core.warm"):
                    machine.warm(self.warmup)
            warm_s = time.perf_counter() - warm_start
            profiler = StageProfiler() if self.profile else None
            with self.spans.span("pipeline.run"):
                if profiler is not None:
                    result = profiler.run(
                        machine, max_instructions=self.instructions)
                else:
                    result = machine.run(
                        max_instructions=self.instructions)
        self.samples.append(RunSample(kind, start,
                                      time.perf_counter() - start, warm_s,
                                      result, profiler))
        return result


class TimedEngine(CampaignEngine):
    """A :class:`CampaignEngine` that records how long planning takes."""

    def __init__(self, *args, spans=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.spans = spans if spans is not None else NullRecorder()
        self.plan_s: List[float] = []

    def plan(self, fresh: bool = False):
        start = time.perf_counter()
        with self.spans.span("campaign.plan"):
            tasks = super().plan(fresh=fresh)
        self.plan_s.append(time.perf_counter() - start)
        return tasks
