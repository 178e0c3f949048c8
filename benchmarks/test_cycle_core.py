"""Cycle-core trajectory: the simulator itself, layer by layer.

One fixed gcc run per machine kind measures the cycle loop
(``Machine.run`` after an explicit ``Machine.warm``); the warm-ups,
program generation, the static analysis gate and the AVF analyzer are
timed on the side.
Each figure is the best (rates) or the median (wall times) of a few
rounds, so one noisy window on a shared CI runner does not move it.

Records, through :func:`repro.obs.bench.record` (a no-op unless
``REPRO_BENCH_OUT`` is set):

- ``sim.cycles_per_s.{base,srt,crt,lockstep}`` — simulated cycles per
  second of the run; the lockstep run has no fault injector, so it
  simulates core 0 and mirrors core 1 from it;
- ``core.warm_ms`` — one ``Machine.warm`` after the layout's first: it
  restores the caches and predictor the first one left
  (``Program._warm``).  Each round warms an equal program generated
  afresh, whose path is recorded before timing: base replays, then srt,
  crt and lockstep restore, so the median is a restore;
- ``core.warm_record_ms`` — the first ``Machine.warm`` of a freshly
  generated program, which records its path and then replays it;
- ``isa.generate_ms`` — ``generate_benchmark("gcc", verify=False)``;
- ``isa.steps_per_s`` — functional executor steps per second of
  ``record_path`` over gcc's warm-up horizon, recorded afresh;
- ``analysis.gate_ms`` — ``gate_program`` on the generated program;
- ``avf.analyze_ms`` — ``analyze_program(program, steps=1000).summary()``
  on the generated program: the static AVF analyzer (both valueflow
  fixpoints, the golden trace and the class rollup).

Wall metrics are recorded in the unit their name ends with.
"""

import statistics
import time

from repro.analysis.checks import gate_program
from repro.avf.analyzer import analyze_program
from repro.core.config import MachineConfig
from repro.core.machine import make_machine
from repro.core.metrics import Termination
from repro.isa.executor import record_path
from repro.isa.generator import generate_benchmark
from repro.obs import bench

ROUNDS = 3
KINDS = ("base", "srt", "crt", "lockstep")
INSTRUCTIONS = 1000
WARMUP = 3000
#: Seeds of the programs timed for generation, the gate, a first warm
#: and the AVF analyzer.
GENERATE_SEEDS = (1, 2, 3)
#: Golden-trace horizon of the timed AVF analysis.
AVF_STEPS = 1000
#: Timed recordings of the warm-up path: each takes a few milliseconds,
#: so the best of more rounds.
RECORD_ROUNDS = 9


def test_cycle_core_throughput():
    program = generate_benchmark("gcc")
    best_steps = 0.0
    for _ in range(RECORD_ROUNDS):
        start = time.perf_counter()
        path = record_path(program, WARMUP)
        best_steps = max(best_steps,
                         len(path) / (time.perf_counter() - start))
    best_rate = {kind: 0.0 for kind in KINDS}
    warm_s = []
    for _ in range(ROUNDS):
        # A cold warm-up memo: base replays the recorded path, the other
        # kinds restore what it left.
        program = generate_benchmark("gcc")
        program.recorded_path(WARMUP)
        for kind in KINDS:
            machine = make_machine(kind, MachineConfig(), [program])
            start = time.perf_counter()
            machine.warm(WARMUP)
            warmed = time.perf_counter()
            result = machine.run(max_instructions=INSTRUCTIONS)
            elapsed = time.perf_counter() - warmed
            assert result.termination is Termination.DONE
            assert not result.fault_events
            warm_s.append(warmed - start)
            best_rate[kind] = max(best_rate[kind], result.cycles / elapsed)

    generate_s, gate_s, warm_record_s, programs = [], [], [], []
    for seed in GENERATE_SEEDS:
        start = time.perf_counter()
        generated = generate_benchmark("gcc", seed=seed, verify=False)
        generated_at = time.perf_counter()
        gate_program(generated)
        gated_at = time.perf_counter()
        machine = make_machine("base", MachineConfig(), [generated])
        start_warm = time.perf_counter()
        machine.warm(WARMUP)
        warm_record_s.append(time.perf_counter() - start_warm)
        generate_s.append(generated_at - start)
        gate_s.append(gated_at - generated_at)
        programs.append(generated)

    # After the loop above, so the analyses' garbage cannot land in the
    # timings of generation, the gate or a warm-up.
    analyze_s = []
    for generated in programs:
        start = time.perf_counter()
        analyze_program(generated, steps=AVF_STEPS).summary()
        analyze_s.append(time.perf_counter() - start)

    print()
    for kind in KINDS:
        print(f"sim {kind}: {best_rate[kind]:.0f} cycles/s")
        bench.record(f"sim.cycles_per_s.{kind}", ops_per_s=best_rate[kind],
                     meta={"benchmark": "gcc", "instructions": INSTRUCTIONS,
                           "warmup": WARMUP})
    print(f"isa steps: {best_steps:.0f} steps/s")
    bench.record("isa.steps_per_s", ops_per_s=best_steps,
                 meta={"benchmark": "gcc", "steps": WARMUP})
    walls = {"core.warm_ms": warm_s, "core.warm_record_ms": warm_record_s,
             "isa.generate_ms": generate_s, "analysis.gate_ms": gate_s,
             "avf.analyze_ms": analyze_s}
    for name, samples in walls.items():
        value = statistics.median(samples) * 1e3
        print(f"{name}: {value:.1f} ms")
        bench.record(name, wall_s=value, meta={"unit": "ms",
                                               "samples": len(samples)})
