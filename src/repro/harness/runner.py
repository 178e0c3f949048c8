"""Experiment runner: builds machines, runs workloads, caches baselines.

All of the paper's figures are ratios against the single-thread base
machine (SMT-Efficiency, Section 6.4), so the runner caches those
baseline IPCs per benchmark instance — one base run per benchmark
regardless of how many configurations are evaluated against it.

Multiprogrammed workloads may repeat a benchmark (e.g. two copies of
gcc); ``program(name, copy=1)`` generates an independent instance with a
different seed so logical-thread names stay unique.
"""

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.config import MachineConfig
from repro.core.machine import Machine, make_machine
from repro.core.metrics import RunResult, arithmetic_mean
from repro.isa.generator import generate_benchmark
from repro.isa.program import Program

WorkloadSpec = Sequence[Union[str, Program]]


@dataclass
class Runner:
    """Runs machine configurations over the synthetic benchmark suite."""

    instructions: int = 2000
    warmup: int = 15_000
    seed: int = 0
    config: MachineConfig = field(default_factory=MachineConfig)
    _programs: Dict[tuple, Program] = field(default_factory=dict, repr=False)
    _by_name: Dict[str, Program] = field(default_factory=dict, repr=False)
    _baseline: Dict[str, float] = field(default_factory=dict, repr=False)

    # -- workloads ---------------------------------------------------------
    def program(self, name: str, copy_index: int = 0) -> Program:
        key = (name, copy_index)
        if key not in self._programs:
            program = generate_benchmark(name, seed=self.seed + copy_index)
            if copy_index:
                program.name = f"{name}#{self.seed + copy_index}"
            self._programs[key] = program
            self._by_name[program.name] = program
        return self._programs[key]

    def programs(self, spec: WorkloadSpec) -> List[Program]:
        """Resolve a mixed list of names/Programs, numbering duplicates."""
        resolved: List[Program] = []
        seen: Dict[str, int] = {}
        for item in spec:
            if isinstance(item, Program):
                self._by_name.setdefault(item.name, item)
                resolved.append(item)
                continue
            copy_index = seen.get(item, 0)
            seen[item] = copy_index + 1
            resolved.append(self.program(item, copy_index))
        return resolved

    # -- machine construction ------------------------------------------------
    def make(self, kind: str, spec: WorkloadSpec,
             config: Optional[MachineConfig] = None, **kwargs) -> Machine:
        return make_machine(kind, config or self.config,
                            self.programs(spec), **kwargs)

    def variant_config(self, **overrides) -> MachineConfig:
        """A deep copy of the runner's config with fields overridden."""
        variant = copy.deepcopy(self.config)
        for key, value in overrides.items():
            if not hasattr(variant, key):
                raise AttributeError(f"MachineConfig has no field {key!r}")
            setattr(variant, key, value)
        return variant

    # -- running ------------------------------------------------------------------
    def run(self, kind: str, spec: WorkloadSpec,
            config: Optional[MachineConfig] = None, **kwargs) -> RunResult:
        programs = self.programs(spec)
        machine = self.make(kind, programs, config, **kwargs)
        result = machine.run(max_instructions=self.instructions,
                             warmup=self.warmup)
        if (kind == "base" and len(programs) == 1 and not kwargs
                and (config or self.config) is self.config
                and self._by_name.get(programs[0].name) is programs[0]):
            # Exactly the run baseline_ipc would make: keep its IPC.
            self._baseline.setdefault(programs[0].name,
                                      result.threads[0].ipc)
        return result

    def run_structured(self, kind: str, spec: WorkloadSpec,
                       config: Optional[MachineConfig] = None,
                       **kwargs) -> Dict[str, object]:
        """Run and return a JSON-able result dict (serve `run` jobs).

        Extends :meth:`RunResult.to_dict` with the per-thread
        SMT-Efficiency ratios (and their single-thread baselines) that
        the print-only CLI path used to compute inline.
        """
        result = self.run(kind, spec, config, **kwargs)
        payload = result.to_dict()
        payload["efficiency"] = self.efficiency(result)
        payload["baseline_ipc"] = {
            thread.name: self.baseline_ipc(thread.name)
            for thread in result.threads
        }
        payload["mean_efficiency"] = self.mean_efficiency(result)
        return payload

    def baseline_ipc(self, program_name: str) -> float:
        """Single-thread base-machine IPC (the SMT-Efficiency denominator)."""
        if program_name not in self._baseline:
            program = self._by_name.get(program_name)
            if program is None:
                program = self.program(program_name)
            result = self.run("base", [program])
            self._baseline[program_name] = result.threads[0].ipc
        return self._baseline[program_name]

    # -- metrics --------------------------------------------------------------------
    def efficiency(self, result: RunResult) -> Dict[str, float]:
        return {thread.name: thread.ipc / self.baseline_ipc(thread.name)
                for thread in result.threads}

    def mean_efficiency(self, result: RunResult) -> float:
        return arithmetic_mean(list(self.efficiency(result).values()))

    # -- multi-seed statistics ---------------------------------------------------
    def efficiency_over_seeds(self, kind: str, names: Sequence[str],
                              seeds: Sequence[int],
                              config: Optional[MachineConfig] = None,
                              **kwargs) -> Dict[str, float]:
        """Mean SMT-Efficiency over several workload seeds.

        Each seed generates independent program instances (and their own
        single-thread baselines), giving confidence that a result is not
        an artifact of one particular generated program.  Returns
        ``{"mean": ..., "min": ..., "max": ...}``.
        """
        values = []
        for seed in seeds:
            sub = Runner(instructions=self.instructions, warmup=self.warmup,
                         seed=seed, config=self.config)
            result = sub.run(kind, names, config=config, **kwargs)
            values.append(sub.mean_efficiency(result))
        return {"mean": arithmetic_mean(values),
                "min": min(values), "max": max(values)}
