"""Reference runs: a cycle-scheduled fault timed at or after the end of
its group's fault-free run takes that run's report without simulating.

Every test compares a record produced with the worker's reference memo
warm against the same task run with the memo cleared, and counts the
machines built to tell a reused task from a simulated one.  The last
class checks the architectural oracle's golden run, which a program
keeps per horizon.
"""

import pytest

from repro.campaign import worker
from repro.campaign.worker import execute_task
from repro.core.config import MachineConfig
from repro.core.faults import FaultReport

#: A strike cycle no run reaches.
NEVER = 10 ** 9


def make_task(kind="srt", model="transient-result", workload="m88ksim",
              seed=0, instructions=150, warmup=400, **site):
    """One machine task dict, its fault at ``NEVER`` unless ``cycle`` is
    given (stuck-unit faults hold one FP unit, which m88ksim never
    uses)."""
    if model == "transient-result":
        fault = dict(cycle=NEVER, core_index=0, bit=5, thread=None,
                     target_loads=False)
    elif model == "transient-register":
        fault = dict(cycle=NEVER, core_index=0, reg=40, bit=5)
    else:
        fault = dict(core_index=0, fu_class="fp", unit_index=0, bit=5)
    fault.update(site, model=model)
    return {"task_id": f"{kind}-{model}-{sorted(fault.items())}",
            "index": 0, "kind": kind, "workload": workload, "model": model,
            "fault": fault, "seed": seed, "instructions": instructions,
            "warmup": warmup, "predicted": None}


@pytest.fixture(autouse=True)
def fresh_memos():
    """Empty program and reference caches before and after each test."""
    worker.program_for.cache_clear()
    worker.clear_reference_runs()
    yield
    worker.program_for.cache_clear()
    worker.clear_reference_runs()


@pytest.fixture
def machines(monkeypatch):
    """Count the machines ``execute_task`` builds."""
    built = []
    make = worker.make_machine

    def counting(*args, **kwargs):
        built.append(args[0])
        return make(*args, **kwargs)

    monkeypatch.setattr(worker, "make_machine", counting)
    return built


def cold(task, config=None):
    """``task``'s record with an empty reference memo (simulated)."""
    worker.clear_reference_runs()
    try:
        return execute_task(task, config)
    finally:
        worker.clear_reference_runs()


def end_cycle(task, config=None):
    """The kept end cycle of ``task``'s reference group."""
    return worker.reference_run(worker.reference_key(task, config))[0]


class TestReuse:
    @pytest.mark.parametrize("kind", ["srt", "crt"])
    @pytest.mark.parametrize("model", ["transient-result",
                                       "transient-register"])
    def test_fault_at_the_end_cycle_is_reused(self, kind, model, machines):
        seed = execute_task(make_task(kind, model))
        assert seed["struck_cycle"] is None
        end = end_cycle(make_task(kind, model))
        assert machines == [kind]

        at_end = make_task(kind, model, cycle=end)
        warm = execute_task(at_end)
        assert machines == [kind]                 # reused
        assert warm == cold(at_end)
        assert warm["fault"]["cycle"] == end
        identity = ("task_id", "fault")
        assert ({k: v for k, v in warm.items() if k not in identity}
                == {k: v for k, v in seed.items() if k not in identity})

    @pytest.mark.parametrize("kind", ["srt", "crt"])
    @pytest.mark.parametrize("model", ["transient-result",
                                       "transient-register"])
    def test_fault_one_cycle_earlier_is_simulated(self, kind, model,
                                                  machines):
        execute_task(make_task(kind, model))
        end = end_cycle(make_task(kind, model))
        before_end = make_task(kind, model, cycle=end - 1)
        warm = execute_task(before_end)
        assert len(machines) == 2                 # simulated
        assert warm == cold(before_end)
        assert warm["struck_cycle"] == end - 1    # the last cycle run

    def test_unstruck_fault_before_the_end_seeds_the_memo(self, machines):
        # A result fault aimed at a hardware thread the core does not
        # run never strikes, however early it is scheduled.
        early = make_task(cycle=60, thread=7)
        seed = execute_task(early)
        assert seed["struck_cycle"] is None
        end = end_cycle(early)
        assert end > 60
        late = make_task(cycle=end + 3)
        warm = execute_task(late)
        assert len(machines) == 1
        assert warm == cold(late)

    def test_stuck_unit_seeds_but_is_never_reused(self, machines):
        stuck = make_task(model="stuck-unit")
        first = execute_task(stuck)
        assert first["struck_cycle"] is None
        end = end_cycle(stuck)
        again = execute_task(stuck)
        assert len(machines) == 2                 # stuck-unit: simulated
        late = make_task(model="transient-register", cycle=end)
        warm = execute_task(late)
        assert len(machines) == 2                 # the stuck run seeded it
        assert again == first == cold(stuck)
        assert warm == cold(late)

    def test_struck_run_is_not_kept(self, machines):
        struck = execute_task(make_task(cycle=60))
        assert struck["struck_cycle"] == 60
        assert worker.reference_run(
            worker.reference_key(make_task(), None)) is None
        late = make_task(model="transient-register")
        warm = execute_task(late)
        assert len(machines) == 2
        assert warm == cold(late)

    @pytest.mark.parametrize("change", [
        {"config": MachineConfig(watchdog_interval=32).to_dict()},
        {"warmup": 300},
        {"instructions": 140},
        {"seed": 1},
        {"kind": "crt"},
        {"workload": "compress"},
    ], ids=["config", "warmup", "instructions", "seed", "kind", "workload"])
    def test_groups_differing_in_one_field_never_share(self, change,
                                                       machines):
        execute_task(make_task())
        end = end_cycle(make_task())
        config = change.pop("config", None)
        other = make_task(cycle=end, **change)
        assert (worker.reference_key(other, config)
                != worker.reference_key(make_task(), None))
        record = execute_task(other, config)
        assert len(machines) == 2                 # not the kept run
        assert record == cold(other, config)

    def test_recovery_enabled_config(self, machines):
        config = MachineConfig(recovery_enabled=True).to_dict()
        execute_task(make_task(kind="crt"), config)
        end = end_cycle(make_task(kind="crt"), config)
        at_end = make_task(kind="crt", cycle=end)
        warm = execute_task(at_end, config)
        assert len(machines) == 1
        assert warm == cold(at_end, config)

    def test_fault_free_hang_keeps_its_fingerprint(self, machines):
        # srt on li at seed 1000 stops retiring with no fault injected:
        # the watchdog ends it HUNG at cycle 4480 after 355 retirements.
        hang = dict(workload="li", seed=1000, instructions=600, warmup=3000)
        seed = execute_task(make_task(**hang))
        assert seed["outcome"] == seed["termination"] == "hung"
        assert seed["fingerprint"]["fingerprint"]["measured"] \
            == {"li#1000": 355}
        assert end_cycle(make_task(**hang)) == 4480
        late = make_task(cycle=4480 + 50, **hang)
        warm = execute_task(late)
        assert len(machines) == 1
        assert warm == cold(late)
        assert warm["fingerprint"] == seed["fingerprint"]

    def test_records_do_not_share_the_kept_report(self):
        hang = dict(workload="li", seed=1000, instructions=600, warmup=3000)
        seed = execute_task(make_task(**hang))
        seed["fingerprint"].clear()               # a caller edits its record
        warm = execute_task(make_task(cycle=NEVER - 1, **hang))
        warm["fingerprint"].clear()
        again = execute_task(make_task(cycle=NEVER - 2, **hang))
        assert again == cold(make_task(cycle=NEVER - 2, **hang))
        assert again["fingerprint"]["cycle"] == 4480


class TestMemo:
    def test_bound_evicts_the_least_recently_used(self):
        report = FaultReport(outcome=None)
        bound = worker.REFERENCE_RUNS
        for key in range(bound + 1):
            worker.keep_reference_run(key, key, report)
        assert worker.reference_run(0) is None    # oldest: evicted
        assert worker.reference_run(1) is not None  # now the newest
        worker.keep_reference_run(bound + 1, 0, report)
        assert worker.reference_run(1) is not None
        assert worker.reference_run(2) is None

    def test_first_reference_of_a_group_stays(self):
        first, second = FaultReport(outcome=None), FaultReport(outcome=None)
        worker.keep_reference_run("group", 10, first)
        worker.keep_reference_run("group", 20, second)
        assert worker.reference_run("group") == (10, first)


class TestArchGolden:
    def test_golden_run_once_per_program_and_horizon(self, monkeypatch):
        """The oracle runs its golden execution once per (program,
        horizon); each report equals one from a program never run."""
        from repro.core import faults
        from repro.isa.generator import generate_benchmark

        executors = []

        class Counting(faults.FunctionalExecutor):
            def __init__(self, program):
                executors.append(program)
                super().__init__(program)

        def report(program, step, horizon):
            fault = faults.ArchRegisterFault(step=step, reg=3, bit=1)
            return faults.run_arch_fault_experiment(
                program, fault, instructions=horizon).to_dict()

        shared = generate_benchmark("compress", seed=0)
        monkeypatch.setattr(faults, "FunctionalExecutor", Counting)
        first = report(shared, 10, 300)
        assert len(executors) == 2                # golden + faulty
        second = report(shared, 20, 300)
        assert len(executors) == 3                # faulty only
        longer = report(shared, 20, 400)
        assert len(executors) == 5                # new horizon: golden again
        monkeypatch.undo()
        for step, horizon, kept in ((10, 300, first), (20, 300, second),
                                    (20, 400, longer)):
            fresh = generate_benchmark("compress", seed=0)
            assert report(fresh, step, horizon) == kept
