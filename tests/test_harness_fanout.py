"""The shared chunked-pool runner under the figure fan-out: a worker
that dies mid-figure is replaced and its slice re-run, a slice that
keeps killing its worker fails the figure, and the start method
follows the caller's thread count."""

import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.harness import experiments, parallel
from repro.harness.runner import Runner
from repro.obs import metrics as obs_metrics

RUNNER_KWARGS = {"instructions": 100, "warmup": 300, "seed": 0}

#: Environment variable naming the marker file of a one-shot kill.
KILL_MARKER = "REPRO_TEST_FANOUT_KILL_MARKER"

VICTIM = "ijpeg"

run_slice = parallel._run_slice


def dying_slice(payload):
    """``_run_slice`` whose worker dies on the victim's slice: once if
    the marker file does not exist yet, every time without a marker."""
    marker = os.environ.get(KILL_MARKER)
    if VICTIM in payload[3]:
        try:
            if marker:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            os.kill(os.getpid(), signal.SIGKILL)
        except FileExistsError:
            pass
    return run_slice(payload)


def rebuilds():
    return obs_metrics.registry().counter("experiment.pool.rebuilds").value


class TestFigureFanOut:
    def test_killed_slice_worker_is_replaced_and_rows_match(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(parallel, "_run_slice", dying_slice)
        monkeypatch.setenv(KILL_MARKER, str(tmp_path / "killed"))
        before = rebuilds()
        result = parallel.run_experiment_parallel("fig9_store_lifetime",
                                                  RUNNER_KWARGS, jobs=2)
        assert (tmp_path / "killed").exists(), "the victim never ran"
        assert rebuilds() - before == 1
        sequential = experiments.fig9_store_lifetime(Runner(**RUNNER_KWARGS))
        assert result.rows == sequential.rows
        assert list(result.rows) == list(sequential.rows)
        assert result.summary == sequential.summary

    def test_slice_that_always_kills_fails_the_figure(self, monkeypatch):
        monkeypatch.setattr(parallel, "_run_slice", dying_slice)
        monkeypatch.delenv(KILL_MARKER, raising=False)
        quarantined = obs_metrics.registry().counter("experiment.quarantined")
        before = quarantined.value
        with pytest.raises(RuntimeError, match=VICTIM):
            parallel.run_experiment_parallel("fig9_store_lifetime",
                                             RUNNER_KWARGS, jobs=2)
        assert quarantined.value - before == 1


#: Reads the start-method decision alone, beside a second thread, and
#: alone again, in a process that starts with one thread.
START_METHODS = """
import threading
from repro.harness.fanout import pool_context
print(pool_context().get_start_method())
release = threading.Event()
other = threading.Thread(target=release.wait)
other.start()
print(pool_context().get_start_method())
release.set()
other.join()
print(pool_context().get_start_method())
"""


#: Runs a figure whose victim slice always kills its worker, in a
#: process that starts with one thread, and prints the thread count
#: before and after and the start method the next fan-out would use.
#: The pool's warnings stay unlogged: writing them to the captured
#: stderr pipe gave a broken pool's threads time to finish before the
#: count, which hid their leak.
AFTER_BROKEN_POOLS = f"""
import logging
import os
import signal
import threading
from repro.harness import parallel
from repro.harness.fanout import pool_context

run_slice = parallel._run_slice

def dying_slice(payload):
    if {VICTIM!r} in payload[3]:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_slice(payload)

parallel._run_slice = dying_slice
logging.getLogger("repro.run").setLevel(logging.ERROR)
before = threading.active_count()
try:
    parallel.run_experiment_parallel("fig9_store_lifetime",
                                     {RUNNER_KWARGS!r}, jobs=2)
except RuntimeError as error:
    assert {VICTIM!r} in str(error), error
else:
    raise AssertionError("the figure did not fail")
print(before, threading.active_count(), pool_context().get_start_method())
"""


def run_script(script):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True).stdout


class TestStartMethod:
    def test_fork_from_one_thread_spawn_beside_another(self):
        out = run_script(START_METHODS)
        assert out.split() == ["fork", "spawn", "fork"]

    def test_broken_pools_leave_no_thread_behind(self):
        """Each rebuild joins the broken pool's manager and feeder
        threads, so the next fan-out still forks."""
        out = run_script(AFTER_BROKEN_POOLS)
        assert out.split() == ["1", "1", "fork"]


#: Starts a jobs=2 pool in a forked child whose tasks report their pids
#: and sleep, SIGKILLs that child alone, and prints how many of the
#: pool's workers are still alive (not gone, not a zombie) 5 s later.
#: Survivors are killed before the script exits.
ORPHANED_POOL = """
import os
import signal
import time
from repro.harness.fanout import run_chunks

reports, report = os.pipe()

def work(payload):
    os.write(report, b"%d\\n" % os.getpid())
    time.sleep(60)
    return payload

def alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False

owner = os.fork()
if owner == 0:
    os.close(reports)
    list(run_chunks(work, list(range(4)), 1, 2,
                    lambda chunk, attempt: chunk, None, name="orphans"))
    os._exit(0)
os.close(report)
pids = set()
with os.fdopen(reports) as lines:
    while len(pids) < 2:
        pids.add(int(lines.readline()))
os.kill(owner, signal.SIGKILL)
os.waitpid(owner, 0)
deadline = time.monotonic() + 5
while any(map(alive, pids)) and time.monotonic() < deadline:
    time.sleep(0.05)
survivors = [pid for pid in pids if alive(pid)]
for pid in survivors:
    os.kill(pid, signal.SIGKILL)
print(len(pids), len(survivors))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads process states from /proc")
class TestOrphanedPool:
    def test_workers_exit_when_their_pool_process_is_killed(self):
        out = run_script(ORPHANED_POOL)
        assert out.split() == ["2", "0"]
