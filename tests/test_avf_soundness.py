"""Soundness property test for the static AVF analyzer.

The analyzer's one contract with the fault-injection campaign is
one-directional: a site it classifies into ``MASKED_CLASSES`` must
*never* be observed DETECTED (or SDC) by the architectural oracle over
the same step horizon.  (LATENT is fine — a flipped bit may stay
resident in dead state.  The other direction — predicted-ACE sites
being masked in practice — is expected and harmless: ACE analysis is a
conservative over-approximation, per Mukherjee et al.)

This test sweeps **every generator profile × 3 seeds = 54 program
instances** (the ISSUE floor is 50), draws class-stratified sites for
all three architectural fault models in each, and injects every
predicted-masked draw through the oracle.  Any detection fails the
suite with the full site description for replay.
"""

import pytest

from repro.avf.analyzer import MASKED_CLASSES
from repro.avf.sites import clear_universe_cache
from repro.campaign.report import FALSE_MASKED_OUTCOMES
from repro.campaign.sampler import enumerate_tasks
from repro.campaign.spec import CampaignSpec
from repro.campaign.worker import execute_task
from repro.core.faults import ARCH_FAULT_MODELS
from repro.isa.profiles import SPEC95_NAMES

SEEDS_PER_PROFILE = 3
INJECTIONS_PER_STRATUM = 4
INSTRUCTIONS = 300


def _spec(profile: str, seed: int) -> CampaignSpec:
    workload = f"{profile}@{seed}" if seed else profile
    return CampaignSpec(
        kinds=("arch",), workloads=(workload,),
        models=ARCH_FAULT_MODELS,
        injections=INJECTIONS_PER_STRATUM,
        instructions=INSTRUCTIONS, warmup=0,
        sampling="stratified")


@pytest.mark.parametrize("profile", SPEC95_NAMES)
def test_no_predicted_masked_site_is_detected(profile):
    clear_universe_cache()
    masked_checked = 0
    for seed in range(SEEDS_PER_PROFILE):
        tasks = enumerate_tasks(_spec(profile, seed))
        for task in tasks:
            if task.predicted not in MASKED_CLASSES:
                continue
            record = execute_task(task.to_dict())
            masked_checked += 1
            assert record["outcome"] not in FALSE_MASKED_OUTCOMES, (
                f"SOUNDNESS VIOLATION: {profile}@{seed} "
                f"model={task.model} predicted={task.predicted} "
                f"fault={dict(task.fault)} -> {record['outcome']}")
    # Stratified sampling guarantees masked draws whenever the class
    # exists; a profile with zero checked sites would make this test
    # vacuous.
    assert masked_checked > 0, f"no masked sites sampled for {profile}"


def test_property_covers_at_least_fifty_instances():
    assert len(SPEC95_NAMES) * SEEDS_PER_PROFILE >= 50


class RecordingList(list):
    """A list that remembers every item assignment made into it."""

    def __init__(self, items) -> None:
        super().__init__(items)
        self.assigned = []

    def __setitem__(self, index, value) -> None:
        self.assigned.append(index)
        super().__setitem__(index, value)


def test_destfield_experiment_never_writes_into_the_callers_program():
    from repro.core.faults import ArchDestFieldFault, run_arch_fault_experiment
    from repro.isa.generator import generate_benchmark
    from repro.isa.program import Program

    source = generate_benchmark("gcc", seed=1)
    watched = Program(name=source.name,
                      instructions=RecordingList(source.instructions),
                      initial_memory=source.initial_memory)
    before = list(watched.instructions)
    outcomes = []
    for step in (0, 7, 40, 150):
        for bit in (0, 3, 5):
            for program in (watched, source):
                report = run_arch_fault_experiment(
                    program, ArchDestFieldFault(step=step, bit=bit),
                    instructions=INSTRUCTIONS)
                outcomes.append((program is watched, step, bit,
                                 report.to_dict()))
    assert watched.instructions.assigned == []
    assert list(watched.instructions) == before
    # The private copy changes nothing the experiment reports.
    assert [o[1:] for o in outcomes[0::2]] == [o[1:] for o in outcomes[1::2]]
    assert {o[3]["outcome"] for o in outcomes} - {"masked"}
