"""Golden run digests: committed behaviour that refactors must reproduce.

Each entry of ``fixtures/golden_runs.json`` is the content hash of one
run's canonical ``RunResult.to_dict()``, its floats rounded to
:data:`FLOAT_DIGITS` significant digits so every supported Python
computes the same digest.  Every run is repeated through each of the
three drivers of the cycle loop — ``Machine.run``,
:class:`~repro.obs.profile.StageProfiler` and
:class:`~repro.harness.tracing.OccupancySampler` — and each must land
on the one recorded digest; the sampler's sample series has its own.
Single fault runs (SRT, and lockstep struck on either core) pin their
report, end cycle, statistics and fault events.  Figures 6, 8, 10 and
11 at paper-smoke size pin their ``ExperimentResult``, one
:class:`~repro.harness.runner.Runner` per figure so that machines of
different kinds warm the same programs, as ``reproduce_paper`` does.
Machines warmed twice pin a warm-up that does not start from cold
structures, and a served SRT run pins ``Runner.run_structured``.  Small fault-injection
campaigns pin the SHA-256 of their ``results.jsonl``, written
in-process one task per chunk and by a two-worker pool at the default
chunk size.  The static AVF analyzer pins, per profile, its summary
and the solver facts under it: the known-bits in-state of every block,
the per-pc demand rows, and the per-pc liveness masks.  The front end pins, per profile and seed, the
generated program (code, initial memory, metadata), its full
``verify_program`` report (every finding's rule, severity, pc and
message) and the constant solver's in-state of every block.

The test only reads the fixture.  After a deliberate behaviour change,
rewrite it with::

    PYTHONPATH=src python3 tests/test_golden_runs.py regenerate

and justify the digest diff in the change that carries it.
"""

import functools
import hashlib
import json
import struct
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

import pytest
from valueflow_reference import canonical_known

from repro.analysis.checks import verify_program
from repro.analysis.dataflow import solve_constants
from repro.analysis.valueflow import solve_known_bits
from repro.avf.analyzer import analyze_program
from repro.campaign.engine import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.core.config import MachineConfig
from repro.core.faults import (TransientResultFault,
                               run_fault_experiment_detailed)
from repro.core.machine import make_machine
from repro.harness.experiments import (fig6_srt_one_thread,
                                       fig8_srt_two_threads,
                                       fig10_crt_one_thread,
                                       fig11_crt_multithread)
from repro.harness.runner import Runner
from repro.harness.tracing import OccupancySampler
from repro.isa.generator import generate_benchmark
from repro.isa.profiles import SPEC95_NAMES
from repro.obs.profile import StageProfiler
from repro.util.canonical import content_hash

FIXTURE = Path(__file__).parent / "fixtures" / "golden_runs.json"

pytestmark = pytest.mark.golden

#: Significant digits a float keeps in a digest: ``sum`` of floats is
#: compensated from Python 3.12 on, so derived ratios may differ in
#: their last bit between versions; simulated counts never do.
FLOAT_DIGITS = 12

SEED = 1
INSTRUCTIONS = 300
WARMUP = 500
SAMPLE_INTERVAL = 16

#: name -> (machine kind, MachineConfig overrides, make_machine kwargs).
CONFIGS: Dict[str, Tuple[str, Dict[str, object], Dict[str, object]]] = {
    "base": ("base", {}, {}),
    "base2": ("base2", {}, {}),
    "srt": ("srt", {}, {}),
    "srt+ptsq": ("srt", {"per_thread_store_queues": True}, {}),
    "srt+nosc": ("srt", {"store_comparison": False}, {}),
    "srt+recovery": ("srt", {"recovery_enabled": True}, {}),
    "lockstep": ("lockstep", {}, {}),
    "crt": ("crt", {}, {}),
}
PROGRAMS = ("gcc", "m88ksim")
#: CRT also runs a partner program so both cores lead one thread.
CRT_PARTNER = "compress"
#: Lock0 and Lock8 as Figure 11 runs them, on one two-program and one
#: four-program workload of its default set (programs joined by ``+``).
FIG11_CONFIGS: Dict[str, Tuple[str, Dict[str, object], Dict[str, object]]] = {
    "lock0": ("lockstep", {}, {"checker_latency": 0}),
    "lock8": ("lockstep", {}, {"checker_latency": 8}),
}
FIG11_WORKLOADS = ("gcc+go", "gcc+go+ijpeg+fpppp")

#: Fault runs on gcc: case -> (machine kind, MachineConfig overrides,
#: struck core, outcome).
FAULT_RUNS = {
    "srt-detected": ("srt", {}, 0, "detected"),
    "srt-recovered": ("srt", {"recovery_enabled": True}, 0, "recovered"),
    "lockstep-core0": ("lockstep", {}, 0, "detected"),
    "lockstep-core1": ("lockstep", {}, 1, "detected"),
}
FAULT = dict(cycle=40, bit=5, thread=0)

DRIVERS = ("run", "profile", "sample")
RUN_CASES = ([f"{config}/{program}" for config in CONFIGS
              for program in PROGRAMS]
             + [f"{config}/{workload}" for config in FIG11_CONFIGS
                for workload in FIG11_WORKLOADS])

#: Figures at paper-smoke size: name -> (experiment, keyword, items).
FIGURES = {
    "fig6": (fig6_srt_one_thread, "benchmarks", list(PROGRAMS)),
    "fig8": (fig8_srt_two_threads, "pairs", [["gcc", "go"]]),
    "fig10": (fig10_crt_one_thread, "benchmarks", list(PROGRAMS)),
    "fig11": (fig11_crt_multithread, "workloads",
              [workload.split("+") for workload in FIG11_WORKLOADS]),
}
FIGURE_INSTRUCTIONS = 600
FIGURE_WARMUP = 3000
#: Machines warmed once by ``warm`` and again by ``run(warmup=...)``.
REWARM_KINDS = ("base", "srt", "crt")

#: The wide corpus: kind/profile#seed, one program per machine.
CORPUS_KINDS = ("base", "srt", "crt", "lockstep")
CORPUS_SEEDS = (1, 2)
CORPUS_INSTRUCTIONS = 200
CORPUS_WARMUP = 500
CORPUS_CASES = [f"{kind}/{name}#{seed}" for kind in CORPUS_KINDS
                for name in SPEC95_NAMES for seed in CORPUS_SEEDS]

#: Campaigns: name -> CampaignSpec fields.  ``transient`` is the
#: benchmark's campaign shape at a smaller size, ``recovery`` runs on
#: recovery-enabled machines, ``arch`` is the architectural oracle.
#: Seeds are picked so the records hold more than one outcome.
CAMPAIGNS: Dict[str, Dict[str, object]] = {
    "transient": dict(kinds=("srt", "crt"), workloads=("m88ksim", "gcc"),
                      models=("transient-result", "transient-register"),
                      injections=2, instructions=200, warmup=500, seed=5),
    "recovery": dict(kinds=("srt", "crt"), workloads=("m88ksim",),
                     models=("transient-result",), injections=3,
                     instructions=200, warmup=500, seed=1,
                     config={"recovery_enabled": True}),
    "arch": dict(kinds=("arch",), workloads=("m88ksim", "gcc"),
                 models=("arch-register", "arch-memory", "arch-destfield"),
                 injections=2, instructions=300, seed=2),
    "lockstep": dict(kinds=("lockstep",), workloads=("m88ksim", "gcc"),
                     models=("transient-result", "transient-register"),
                     injections=2, instructions=200, warmup=500, seed=3,
                     strike_window=(20, 120)),
}
#: How a campaign runs: mode -> (jobs, chunk size; ``None`` = default).
CAMPAIGN_MODES = {"jobs1-chunk1": (1, 1), "jobs2": (2, None)}

#: Static AVF analysis: every profile's SEED program over this horizon.
AVF_STEPS = 1000

#: The front end: every profile at each of these seeds, generated
#: without the gate and then verified in full.
PROGRAM_SEEDS = (0, 1, 2)
PROGRAM_CASES = [f"{name}#{seed}" for name in SPEC95_NAMES
                 for seed in PROGRAM_SEEDS]


def rounded(data: object) -> object:
    """``data`` with every float rounded to FLOAT_DIGITS digits."""
    if isinstance(data, float):
        return float(f"{data:.{FLOAT_DIGITS}g}")
    if isinstance(data, dict):
        return {key: rounded(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [rounded(value) for value in data]
    return data


def digest(data: object) -> str:
    return content_hash(rounded(data))


@functools.lru_cache(maxsize=None)
def program(name: str, seed: int = SEED):
    return generate_benchmark(name, seed=seed)


def build(case: str):
    config_name, workload = case.split("/")
    kind, overrides, kwargs = {**CONFIGS, **FIG11_CONFIGS}[config_name]
    programs = [program(name) for name in workload.split("+")]
    if kind == "crt":
        programs.append(program(CRT_PARTNER))
    return make_machine(kind, MachineConfig(**overrides), programs, **kwargs)


def drive(case: str, driver: str) -> Tuple[str, List[object]]:
    """(run digest, sample series) of ``case`` through ``driver``."""
    machine = build(case)
    samples: List[object] = []
    if driver == "run":
        result = machine.run(max_instructions=INSTRUCTIONS, warmup=WARMUP)
    elif driver == "profile":
        result = StageProfiler().run(machine, max_instructions=INSTRUCTIONS,
                                     warmup=WARMUP)
    else:
        sampler = OccupancySampler(machine, interval=SAMPLE_INTERVAL)
        result = sampler.run(INSTRUCTIONS, warmup=WARMUP)
        samples = [[sample.cycle, sample.values]
                   for sample in sampler.samples]
    return digest(result.to_dict()), samples


def corpus_run(case: str) -> str:
    """Digest of one wide-corpus case through ``Machine.run``."""
    kind, workload = case.split("/")
    name, seed = workload.split("#")
    machine = make_machine(kind, MachineConfig(), [program(name, int(seed))])
    result = machine.run(max_instructions=CORPUS_INSTRUCTIONS,
                         warmup=CORPUS_WARMUP)
    return digest(result.to_dict())


def fault_run(case: str) -> Tuple[str, str]:
    """(digest, outcome) of one fault run."""
    kind, overrides, core_index, _ = FAULT_RUNS[case]
    machine = make_machine(kind, MachineConfig(**overrides),
                           [program("gcc")])
    report = run_fault_experiment_detailed(
        machine, program("gcc"),
        TransientResultFault(core_index=core_index, **FAULT),
        instructions=INSTRUCTIONS, warmup=WARMUP)
    run_digest = digest({"report": report.to_dict(), "cycles": machine.now,
                         "stats": machine.machine_stats(),
                         "fault_events": [vars(event) for event
                                          in machine.fault_events]})
    return run_digest, report.outcome.value


def figure_run(name: str) -> str:
    """Digest of one figure's ``ExperimentResult`` on a fresh runner."""
    experiment, keyword, items = FIGURES[name]
    runner = Runner(instructions=FIGURE_INSTRUCTIONS, warmup=FIGURE_WARMUP,
                    seed=SEED)
    return digest(experiment(runner, **{keyword: items}).to_dict())


def rewarm_run(kind: str) -> str:
    """Digest of a gcc run whose machine is warmed twice."""
    machine = make_machine(kind, MachineConfig(), [program("gcc")])
    machine.warm(WARMUP)
    result = machine.run(max_instructions=INSTRUCTIONS, warmup=WARMUP)
    return digest(result.to_dict())


def served_run() -> str:
    """Digest of a served SRT payload: the SRT run, then its base
    baseline, on one runner."""
    runner = Runner(instructions=INSTRUCTIONS, warmup=WARMUP, seed=SEED)
    return digest(runner.run_structured("srt", ["gcc"]))


def campaign_run(case: str, mode: str, out_dir: Path) -> str:
    """SHA-256 of one campaign's ``results.jsonl``."""
    jobs, chunk_size = CAMPAIGN_MODES[mode]
    spec = CampaignSpec(**CAMPAIGNS[case])
    summary = run_campaign(spec, out_dir, jobs=jobs, chunk_size=chunk_size)
    assert summary["state"] == "complete"
    return hashlib.sha256(
        (out_dir / "results.jsonl").read_bytes()).hexdigest()


def avf_run(name: str) -> Dict[str, str]:
    """Digests of one profile's AVF summary and of the solver facts
    under it."""
    analysis = analyze_program(program(name), steps=AVF_STEPS)
    bitlive = analysis.bitlive
    demand = hashlib.sha256()
    for rows in (bitlive.before, bitlive.after):
        for row in rows:
            demand.update(struct.pack("<64Q", *row))
    return {
        "summary": digest(analysis.summary().to_dict()),
        "known_in": digest(canonical_known(solve_known_bits(analysis.cfg))),
        "demand": demand.hexdigest()[:16],
        "liveness": digest([bitlive.live_before, bitlive.defined_later]),
    }


def program_run(case: str) -> Dict[str, str]:
    """Digests of one generated program, its verifier report and its
    constant in-states."""
    name, seed = case.split("#")
    generated = generate_benchmark(name, seed=int(seed), verify=False)
    report = verify_program(generated)
    code = [[instr.op.name, instr.rd, instr.ra, instr.rb, instr.imm,
             instr.target, instr.label] for instr in generated.instructions]
    return {
        "program": digest({
            "name": generated.name, "entry": generated.entry, "code": code,
            "memory": sorted(generated.initial_memory.items()),
            "metadata": generated.metadata}),
        "report": digest([[f.rule, int(f.severity), f.pc, f.message]
                          for f in report.findings]),
        "constants": digest([None if state is None else sorted(state.items())
                             for state in solve_constants(report.cfg)]),
    }


@functools.lru_cache(maxsize=None)
def golden() -> Dict[str, Dict[str, str]]:
    with open(FIXTURE, "r", encoding="utf-8") as source:
        return json.load(source)


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("case", RUN_CASES)
def test_run_digest(case, driver):
    run_digest, samples = drive(case, driver)
    assert run_digest == golden()["runs"][case]
    if driver == "sample":
        assert digest(samples) == golden()["samples"][case]


@pytest.mark.parametrize("case", CORPUS_CASES)
def test_corpus_digest(case):
    assert corpus_run(case) == golden()["corpus"][case]


@pytest.mark.parametrize("case", sorted(FAULT_RUNS))
def test_fault_run_digest(case):
    run_digest, outcome = fault_run(case)
    assert outcome == FAULT_RUNS[case][-1]
    assert run_digest == golden()["faults"][case]


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_digest(name):
    assert figure_run(name) == golden()["figures"][name]


@pytest.mark.parametrize("kind", REWARM_KINDS)
def test_rewarm_digest(kind):
    assert rewarm_run(kind) == golden()["rewarmed"][kind]


def test_served_digest():
    assert served_run() == golden()["served"]


@pytest.mark.parametrize("mode", sorted(CAMPAIGN_MODES))
@pytest.mark.parametrize("case", sorted(CAMPAIGNS))
def test_campaign_digest(case, mode, tmp_path):
    assert campaign_run(case, mode, tmp_path) == golden()["campaigns"][case]


@pytest.mark.parametrize("name", SPEC95_NAMES)
def test_avf_digest(name):
    assert avf_run(name) == golden()["avf"][name]


@pytest.mark.parametrize("case", PROGRAM_CASES)
def test_program_digest(case):
    assert program_run(case) == golden()["programs"][case]


def regenerate() -> None:
    """Rewrite the fixture from ``Machine.run`` (the reference driver)
    and from in-process campaigns; the pooled runs must agree."""
    runs, samples = {}, {}
    for case in RUN_CASES:
        runs[case] = drive(case, "run")[0]
        samples[case] = digest(drive(case, "sample")[1])
    campaigns = {}
    with tempfile.TemporaryDirectory() as work:
        for case in sorted(CAMPAIGNS):
            digests = {campaign_run(case, mode, Path(work) / case / mode)
                       for mode in CAMPAIGN_MODES}
            if len(digests) != 1:
                sys.exit(f"campaign {case}: modes disagree")
            campaigns[case] = digests.pop()
    payload = {
        "seed": SEED, "instructions": INSTRUCTIONS, "warmup": WARMUP,
        "runs": runs, "samples": samples,
        "faults": {case: fault_run(case)[0] for case in sorted(FAULT_RUNS)},
        "figures": {name: figure_run(name) for name in sorted(FIGURES)},
        "figure_size": {"instructions": FIGURE_INSTRUCTIONS,
                        "warmup": FIGURE_WARMUP},
        "rewarmed": {kind: rewarm_run(kind) for kind in REWARM_KINDS},
        "served": served_run(),
        "corpus": {case: corpus_run(case) for case in CORPUS_CASES},
        "corpus_size": {"instructions": CORPUS_INSTRUCTIONS,
                        "warmup": CORPUS_WARMUP},
        "campaigns": campaigns,
        "avf": {name: avf_run(name) for name in SPEC95_NAMES},
        "avf_steps": AVF_STEPS,
        "programs": {case: program_run(case) for case in PROGRAM_CASES},
    }
    with open(FIXTURE, "w", encoding="utf-8") as sink:
        json.dump(payload, sink, indent=1, sort_keys=True)
        sink.write("\n")
    print(f"wrote {len(runs)} run, {len(samples)} sample, "
          f"{len(payload['faults'])} fault, {len(payload['figures'])} "
          f"figure, {len(payload['rewarmed']) + 1} rewarm and served, "
          f"{len(payload['corpus'])} corpus, {len(campaigns)} campaign, "
          f"{len(payload['avf'])} AVF and {len(payload['programs'])} "
          f"program digests to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} regenerate")
    regenerate()
