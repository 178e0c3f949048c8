"""Tests of the benchmark itself: ``python3 -m pytest bench -q``.

The end-to-end tests run the real command at a tiny scale (one second
of measurement per workload).
"""

import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from bench import ROOT, WORK
from bench.commands import declared
from bench.oracle import EXPECTED_PATH, Oracle, digest
from bench.probe import HostProbe
from bench.spans import SpanRecorder, covered, join, self_times, summarize
from bench.timed import TimedRunner
from bench.workloads import (INPUT_SETS, MIX, POPULAR, SERVE_PROFILES,
                             WORKLOADS, clean_program, serve_request)

SPEC = declared()


def bench(*args, cwd=ROOT):
    """Run ``python3 bench/run.py`` in ``cwd`` and return (exit code,
    stdout lines)."""
    done = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, text=True, timeout=300)
    return done.returncode, done.stdout.splitlines()


@pytest.fixture(scope="module")
def runs():
    """Each workload once untraced and once traced, seed 0, 1 second."""
    return {(workload, trace): bench("run", "--workload", workload,
                                     "--seed", "0", "--seconds", "1",
                                     "--trace", str(trace))
            for workload in SPEC["workloads"] for trace in (0, 1)}


@pytest.fixture
def scratch():
    path = WORK / "test-scratch"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# -- the command and its output ----------------------------------------------

def test_every_workload_emits_exactly_the_declared_metrics(runs):
    assert sorted(WORKLOADS) == sorted(SPEC["workloads"])
    for (workload, trace), (code, lines) in runs.items():
        assert code == 0, (workload, trace, lines[-5:])
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed",
                                  "metrics"]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared_metrics = SPEC["per_layer" if trace else "end_to_end"]
        assert sorted(result["metrics"]) == sorted(declared_metrics)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == declared_metrics[name]["unit"]
            assert isinstance(metric["value"], (int, float))
            if not trace:
                assert metric["value"] > 0, (workload, name)


def test_every_per_layer_metric_is_measured_by_some_workload(runs):
    measured = set()
    for (workload, trace), (_, lines) in runs.items():
        if trace:
            measured |= {line.split()[0] for line in lines
                         if line.startswith("  ") and " n/a " not in line}
    assert measured == set(SPEC["per_layer"])


def copy_benchmark(scratch):
    """A checkout in ``scratch`` holding only ``BENCHMARK.json`` and a copy
    of ``bench/``."""
    shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", scratch / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_tampered_digest_fails_the_op_and_the_command(scratch):
    copy_benchmark(scratch)
    (scratch / "src").symlink_to(ROOT / "src", target_is_directory=True)
    expected = scratch / "bench" / EXPECTED_PATH.name
    data = json.loads(expected.read_text())
    table = data["seeds"]["0"]["campaign"]
    key = next(iter(table))
    table[key] = "0" * len(table[key])
    expected.write_text(json.dumps(data))
    code, lines = bench("run", "--workload", "campaign", "--seed", "0",
                        "--seconds", "1", cwd=scratch)
    result = json.loads(lines[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] >= 1


def test_expected_digests_cover_every_input_set():
    data = json.loads(EXPECTED_PATH.read_text())
    assert sorted(map(int, data["seeds"])) == list(range(INPUT_SETS))
    for tables in data["seeds"].values():
        assert sorted(tables) == sorted(SPEC["workloads"])


def test_oracle_checks_recorded_keys_only():
    oracle = Oracle({"a": "1111"}, announce=False)
    assert oracle.check("a", "1111") is None
    assert "expected 1111" in oracle.check("a", "2222")
    assert oracle.check("b", "3333") is None
    assert oracle.seen == {"a": "2222", "b": "3333"}


def test_digest_ignores_last_bit_float_differences():
    # fig11 mean efficiency under Python 3.11 and 3.12+ (compensated sum).
    assert (digest({"mean": [0.605442301076976, 2]})
            == digest({"mean": (0.6054423010769759, 2)}))
    assert digest({"mean": 0.605442301076976}) != digest({"mean": 0.6054423})


def test_bare_benchmark_directory_fails_without_a_result(scratch):
    copy_benchmark(scratch)
    code, lines = bench("run", "--workload", "campaign", "--seed", "0",
                        "--seconds", "1", cwd=scratch)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


# -- spans -------------------------------------------------------------------

def _record(span, parent, start, end, name="x", **attrs):
    return {"trace": "t", "span": span, "parent": parent, "name": name,
            "start": start, "end": end, "ok": True, "attrs": attrs}


def test_self_time_subtracts_child_coverage_once():
    records = [
        _record("root", None, 0.0, 10.0),
        _record("a", "root", 1.0, 3.0),
        _record("b", "root", 2.0, 5.0),       # overlaps a: counted once
        _record("c", "root", 9.0, 12.0),      # clipped to the parent
        _record("a1", "a", 1.5, 2.5),         # a grandchild: a's, not root's
    ]
    own = self_times(records)
    assert own["root"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["a"] == pytest.approx(2.0 - 1.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["c"] == pytest.approx(3.0)
    assert covered([(0, 1), (0.5, 2), (3, 4)], 0.0, 10.0) == pytest.approx(3)
    assert covered([], 0.0, 1.0) == 0.0


def test_recorder_nests_spans_and_joins_program_spans():
    recorder = SpanRecorder("trace-1")
    with recorder.span("outer") as attrs:
        attrs["link"] = "job1"
        with recorder.span("inner"):
            pass
    outer, = [r for r in recorder.records if r["name"] == "outer"]
    inner, = [r for r in recorder.records if r["name"] == "inner"]
    assert inner["parent"] == outer["span"]
    assert outer["parent"] is None and outer["trace"] == "trace-1"
    program = [
        {"trace": "job1", "span": "s1", "parent": None, "name": "job",
         "ts": outer["start"] + 0.0001, "dur_s": 0.0},
        {"trace": "other", "span": "s2", "parent": "s1", "name": "task",
         "ts": outer["start"], "dur_s": 0.0},
    ]
    joined = join(recorder.records, program, "trace-1")
    assert [r["parent"] for r in joined] == [outer["span"], "ps1"]
    assert all(r["trace"] == "trace-1" for r in joined)
    table = summarize(recorder.records + joined)
    assert table["outer"]["count"] == 1 and table["task"]["count"] == 1


# -- host-speed correction and inputs ------------------------------------------

def test_reference_seconds_divide_by_the_local_slowness():
    probe = HostProbe()
    assert probe.reference_seconds(3.0, 7.0) == pytest.approx(4.0)
    # Each point governs halfway to its neighbours and reads the median
    # of itself and them: 1.5, 2, 2, 1.5 over (-inf, 5, 15, 25, inf).
    probe.points = [(0.0, 1.0), (10.0, 2.0), (20.0, 2.0), (30.0, 1.0)]
    assert probe.reference_seconds(5.0, 25.0) == pytest.approx(10.0)
    assert probe.reference_seconds(0.0, 5.0) == pytest.approx(5.0 / 1.5)
    assert probe.reference_seconds(0.0, 10.0) == pytest.approx(
        5.0 / 1.5 + 5.0 / 2.0)


def test_every_serve_block_has_the_exact_mix():
    popular = [{"which": which} for which in range(len(POPULAR))]
    for seed in (0, 1):
        requests = [serve_request(seed, index, popular)
                    for index in range(2 * len(MIX))]
        for block in (requests[:len(MIX)], requests[len(MIX):]):
            classes = Counter(cls for cls, *_ in block)
            assert classes == {"popular": 8, "run": 9, "analyze": 3}
            kinds = Counter(params["kind"] for cls, _, _, params in block
                            if cls == "run")
            assert kinds == {"base": 3, "srt": 3, "crt": 3}
            assert Counter(params["which"] for cls, _, _, params in block
                           if cls == "popular") == {0: 2, 1: 2, 2: 2, 3: 2}
        profiles = Counter(params["benchmarks"][0]
                           for cls, _, _, params in requests
                           if cls == "run")
        assert profiles == {profile: 3 for profile in SERVE_PROFILES}


def test_inputs_avoid_the_known_fall_through_jump_divergence():
    # m88ksim at seed 5 jumps to its own fall-through address early on,
    # which fault-free SRT/CRT runs misreport as a divergence.
    _, seed, _ = clean_program("m88ksim", 5, 2400)
    assert seed != 5
    _, seed, _ = clean_program("m88ksim", 0, 2400)
    assert seed == 0


# -- the traced path changes no result ----------------------------------------

@pytest.mark.parametrize("kind", ["base", "base2", "srt", "lockstep", "crt"])
def test_traced_and_untraced_run_results_are_identical(kind):
    results = []
    for profile in (False, True):
        runner = TimedRunner(instructions=200, warmup=500, seed=0,
                             profile=profile, spans=SpanRecorder("t"))
        results.append(runner.run(kind, ["m88ksim"]).to_dict())
        sample, = runner.samples
        assert (sample.profiler is not None) == profile
    assert results[0] == results[1]
