"""Restored warm-ups equal replayed ones, bit for bit.

``Machine.warm`` replays a layout's path into each pristine cache and
branch predictor once, publishes a copy of the state it reached in the
memo of the first measured program (``Program._warm``), and restores
copies into the pristine structures of later machines.  A machine warmed
from that memo must hold exactly the state of one warmed from an equal
program generated afresh, whose memo is cold: every cache's sets in
order with their LRU stamps, its use stamp and statistics, and every
predictor's tables, histories and statistics.  ``Core.add_thread``
seeds memory with one update, which must leave the image the old
``setdefault`` per word left.
"""

import functools
import sys
import threading
from collections import Counter
from typing import Dict, List, Tuple

import pytest

from repro.core.config import MachineConfig
from repro.core.faults import FaultInjector
from repro.core.machine import WARM_MEMO_LIMIT, Machine, make_machine
from repro.isa.generator import generate_benchmark
from repro.memory.cache import SetAssociativeCache
from repro.pipeline.core import Core
from repro.predictors import GshareBranchPredictor

pytestmark = pytest.mark.golden

SEED = 5
WARMUP = 1500
INSTRUCTIONS = 300

#: name -> (machine kind, MachineConfig overrides, make_machine kwargs,
#: attach an empty injector, most programs the kind runs).  The empty
#: injector keeps a lockstep machine's core 1 and its hierarchy
#: simulated.
CONFIGS: Dict[str, Tuple[str, dict, dict, bool, int]] = {
    "base": ("base", {}, {}, False, 4),
    "base2": ("base2", {}, {}, False, 2),
    "srt": ("srt", {}, {}, False, 2),
    "srt+ptsq": ("srt", {"per_thread_store_queues": True}, {}, False, 2),
    "crt": ("crt", {}, {}, False, 4),
    "lockstep": ("lockstep", {}, {}, False, 4),
    "lockstep+dual": ("lockstep", {}, {}, True, 4),
    "lock8": ("lockstep", {}, {"checker_latency": 8}, False, 4),
}
#: Program count -> profiles, in thread order.
WORKLOADS = {1: ("gcc",), 2: ("gcc", "go"), 4: ("gcc", "go", "ijpeg",
                                                "fpppp")}
CASES = [(config, count) for config in CONFIGS for count in WORKLOADS
         if count <= CONFIGS[config][-1]]


def fresh(count: int) -> list:
    """Programs equal to :func:`shared`'s, generated afresh: their
    memos are cold."""
    return [generate_benchmark(name, seed=SEED) for name in WORKLOADS[count]]


@functools.lru_cache(maxsize=None)
def shared(count: int) -> list:
    """One set of programs per count, kept for the whole module, so
    their memos fill up as the tests warm machines on them."""
    return fresh(count)


def build(config: str, programs: list) -> Machine:
    kind, overrides, kwargs, dual, _ = CONFIGS[config]
    machine = make_machine(kind, MachineConfig(**overrides), programs,
                           **kwargs)
    if dual:
        FaultInjector(machine, [])
    return machine


def state(machine: Machine) -> list:
    """Every bit a warm-up writes, in order, as plain lists."""
    snapshot = []
    for hierarchy in machine.hierarchies:
        for cache in (*hierarchy.l1i, *hierarchy.l1d, hierarchy.l2):
            snapshot.append((cache.name, cache._use_stamp,
                             dict(vars(cache.stats)),
                             [(index, list(ways.items()))
                              for index, ways in cache._sets.items()]))
    for core in machine.cores:
        predictor = core.branch_predictor
        snapshot.append(([list(table.items()) for table in (
            predictor._gshare, predictor._bimodal, predictor._chooser)],
            list(predictor._history), dict(vars(predictor.stats))))
    return snapshot


@pytest.fixture
def replays(monkeypatch) -> Counter:
    """Counts cache warm-ups and predictor trainings that replay."""
    counts: Counter = Counter()
    warm, train = SetAssociativeCache.warm, GshareBranchPredictor.train

    def counted_warm(self, addrs):
        counts["cache"] += 1
        warm(self, addrs)

    def counted_train(self, threads, branches):
        counts["predictor"] += 1
        train(self, threads, branches)

    monkeypatch.setattr(SetAssociativeCache, "warm", counted_warm)
    monkeypatch.setattr(GshareBranchPredictor, "train", counted_train)
    return counts


@pytest.mark.parametrize("config,count", CASES)
def test_restored_state_equals_replayed(config, count, replays):
    programs = shared(count)
    build(config, programs).warm(WARMUP)  # publishes, if nothing did yet
    machine = build(config, programs)
    replays.clear()
    machine.warm(WARMUP)
    assert not replays, "every pristine structure restores"
    reference = build(config, fresh(count))
    reference.warm(WARMUP)
    assert replays, "a cold memo replays"
    assert state(machine) == state(reference)


def test_kinds_and_sibling_l1s_share_entries(replays):
    programs = fresh(1)
    build("crt", programs).warm(WARMUP)
    # Two L1Is and two L1Ds take two streams: one replay each, plus the
    # L2 and the leading core's predictor.
    assert replays == Counter(cache=3, predictor=1)
    for config in ("base", "srt", "lockstep", "lock8", "lockstep+dual"):
        replays.clear()
        machine = build(config, programs)
        machine.warm(WARMUP)
        assert not replays, config
        reference = build(config, fresh(1))
        reference.warm(WARMUP)
        assert state(machine) == state(reference), config


def test_running_a_restored_machine_leaves_the_memo_unchanged():
    programs = fresh(2)
    first = build("srt", programs)
    first.warm(WARMUP)
    expected = state(first)
    first.run(max_instructions=INSTRUCTIONS)
    restored = build("srt", programs)
    restored.warm(WARMUP)
    assert state(restored) == expected
    restored.run(max_instructions=INSTRUCTIONS)
    again = build("srt", programs)
    again.warm(WARMUP)
    assert state(again) == expected


@pytest.mark.parametrize("config", ("base", "srt", "crt", "lockstep+dual"))
def test_second_warm_up_replays(config):
    programs = shared(2)
    machine = build(config, programs)
    machine.warm(WARMUP)
    machine.warm(WARMUP)
    reference_programs = fresh(2)
    reference = build(config, reference_programs)
    reference.warm(WARMUP)
    for program in reference_programs:
        program._warm.clear()
    reference.warm(WARMUP)
    assert state(machine) == state(reference)


def test_equal_programs_never_share_an_entry(replays):
    first = fresh(2)
    build("base", first).warm(WARMUP)
    build("base", first[:1]).warm(WARMUP)
    equal = fresh(2)
    assert equal == first and equal[0] is not first[0]
    for programs in (equal[:1], [first[0], equal[1]]):
        replays.clear()
        build("base", programs).warm(WARMUP)
        # One replay per stream, one training per program.
        assert replays == Counter(cache=3, predictor=len(programs))


def test_pair_entry_needs_its_own_partner():
    gcc, go = fresh(2)
    build("srt", [gcc, go]).warm(WARMUP)
    # Same name and thread layout as go, different code and data.
    partner = generate_benchmark("li", seed=SEED)
    partner.name = go.name
    machine = build("srt", [gcc, partner])
    machine.warm(WARMUP)
    twin = generate_benchmark("li", seed=SEED)
    twin.name = go.name
    reference = build("srt", [fresh(1)[0], twin])
    reference.warm(WARMUP)
    assert state(machine) == state(reference)


def test_concurrent_first_warm_ups_get_the_replayed_state():
    configs = ("base", "srt", "crt", "lockstep")
    expected = {}
    for config in configs:
        reference = build(config, fresh(2))
        reference.warm(WARMUP)
        expected[config] = state(reference)
    programs = fresh(2)
    machines = [build(config, programs) for config in configs]
    barrier = threading.Barrier(len(machines))
    errors: List[BaseException] = []

    def warm(machine):
        try:
            barrier.wait()
            machine.warm(WARMUP)
        except BaseException as error:  # surfaced below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=warm, args=(machine,))
                   for machine in machines]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    for config, machine in zip(configs, machines):
        assert state(machine) == expected[config], config


def test_memo_is_bounded():
    program = fresh(1)[0]
    # Each length publishes three caches and a predictor.
    for length in range(1, WARM_MEMO_LIMIT // 4 + 3):
        build("base", [program]).warm(length)
    assert len(program._warm) == WARM_MEMO_LIMIT
    machine = build("base", [program])
    machine.warm(WARMUP)
    reference = build("base", fresh(1))
    reference.warm(WARMUP)
    assert state(machine) == state(reference)
    assert len(program._warm) == WARM_MEMO_LIMIT


def seed_by_setdefault(monkeypatch) -> None:
    """Make ``Core.add_thread`` seed memory one ``setdefault`` per word,
    as it did before it seeded with one update."""
    add_thread = Core.add_thread

    def add_thread_by_setdefault(self, program, *args, **kwargs):
        memory, self.memory = self.memory, {}
        try:
            thread = add_thread(self, program, *args, **kwargs)
        finally:
            self.memory = memory
        for addr, value in program.initial_memory.items():
            memory.setdefault(thread.phys_addr(addr), value)
        return thread

    monkeypatch.setattr(Core, "add_thread", add_thread_by_setdefault)


def images(machine: Machine) -> list:
    memories = getattr(machine, "memories", [machine.memory])
    return [list(memory.items()) for memory in memories]


@pytest.mark.parametrize("config,count", CASES)
def test_memory_seeded_as_by_setdefault(config, count, monkeypatch):
    programs = shared(count)
    seeded = images(build(config, programs))
    seed_by_setdefault(monkeypatch)
    assert seeded == images(build(config, programs))
