"""Machine models and the machine factory.

A *machine* is one single-chip device configuration from the paper:

- ``base`` — the base SMT processor (Section 3), one core, up to four
  independent logical threads;
- ``srt``  — the base core with SRT extensions (Section 4);
- ``lockstep`` — two cores running every logical thread twice in
  cycle-lockstep with a central checker (Section 5);
- ``crt``  — chip-level redundant threading across two cores (Section 5).

``make_machine(kind, config, programs)`` builds any of them.
"""

import logging
from functools import cached_property, partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import MachineConfig
from repro.core.metrics import (FaultEvent, RunResult, Termination,
                                ThreadResult)
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import Core, Phase
from repro.pipeline.thread import HwThread, ThreadRole

#: Runs that do not end the way they should (cycle-limit truncation,
#: drain-grace expiry, hang forensics) leave one warning here.
run_log = logging.getLogger("repro.run")


class Machine:
    """Common run loop and result collection."""

    kind = "abstract"

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.memory: Dict[int, int] = {}
        self.cores: List[Core] = []
        self.hierarchies: List[MemoryHierarchy] = []
        self.fault_events: List[FaultEvent] = []
        self.injector = None  # optional repro.core.faults.FaultInjector
        self.watchdog = None  # repro.recovery.watchdog.ProgressWatchdog
        self.recovery = None  # repro.recovery.checkpoint.RecoveryManager
        self.abort_reason: Optional[Termination] = None
        self.now = 0
        # name -> the hardware thread whose retirement measures progress.
        self._measured: Dict[str, HwThread] = {}

    # -- to be populated by subclasses -------------------------------------
    def _register_logical_thread(self, name: str, thread: HwThread) -> None:
        if name in self._measured:
            raise ValueError(f"duplicate logical thread name {name!r}")
        self._measured[name] = thread

    def attach_injector(self, injector) -> None:
        """Tick ``injector`` (a :class:`~repro.core.faults.FaultInjector`)
        at the start of every cycle."""
        self.injector = injector

    @property
    def reported_cores(self) -> List[Tuple[int, Core]]:
        """``(core_id, core)`` for every core a run reports on: what
        :meth:`machine_stats`, the watchdog's fingerprint and the
        occupancy sampler read.  The simulated cores, unless a subclass
        reports one simulated core under another id as well."""
        return [(core.core_id, core) for core in self.cores]

    def _begin(self) -> None:
        """Settle which cores and hierarchies are simulated; runs before
        every warm-up and before the first cycle, and must keep the
        first answer."""

    def report_fault(self, cycle: int, kind: str, thread: int,
                     detail: str = "") -> None:
        event = FaultEvent(cycle, kind, thread, detail)
        self.fault_events.append(event)
        if self.recovery is not None:
            self.recovery.on_fault(event)

    def abort(self, reason: Termination) -> None:
        """Stop the run loop at the next cycle boundary with ``reason``.

        Used by the recovery manager when its checkpoint ring is
        exhausted: continuing to replay from the same corrupt state
        would loop forever, so the run terminates ``UNRECOVERABLE``.
        """
        self.abort_reason = reason

    # -- warm-up -----------------------------------------------------------------
    def warm(self, instructions: int = 5_000) -> None:
        """Warm caches and branch predictors before measuring.

        Mirrors the paper's methodology (Section 6.2: structures are
        warmed before statistics are collected).  Each program's future
        architectural path (:meth:`Program.recorded_path`, executed once
        per program and then replayed) installs the blocks it touches in
        every simulated hierarchy (:meth:`_begin`), and its branch
        outcomes train the conditional predictors of the simulated cores
        that will run the thread.

        A cache's warmed state depends only on its own sequence of
        installs and a predictor's only on its own training, so each
        structure takes its whole stream in one call: every L1I the code
        addresses, every L1D the data addresses, every L2 both in step
        order.  Warmed from pristine, a structure's state is a function
        of its geometry, its stream (for a predictor, the threads it
        trains for each measured program) and the layout: the warm-up
        length and, per measured thread in order, its program, address
        offset and code base.  The first such warm-up of a layout
        publishes a copy of each state in the memo of the first measured
        thread's program (``Program._warm``); later ones restore copies
        into their pristine structures instead of replaying, so machines
        of different kinds and latencies, and CRT's sibling L1s, warm each
        geometry once.  A multi-program entry holds the layout's other
        programs and applies only when each one is the machine's.  A
        structure that is not pristine (a second warm-up, a warm-up after
        cycles ran) replays.  Entries are immutable and published by one
        dict assignment: threads that miss on one key at once each replay
        and publish equal entries.
        """
        self._begin()
        measured = list(self._measured.values())
        if not measured:
            return
        programs = [hw.program for hw in measured]
        others = tuple(programs[1:])
        memo = programs[0]._warm
        layout = (instructions, tuple(program.name for program in others),
                  tuple((hw.addr_offset, hw.program.code_base)
                        for hw in measured))
        streams: Dict[str, List[int]] = {}

        def warm_cache(cache, stream: str) -> None:
            if not streams:
                streams.update(_warm_streams(measured, instructions))
            cache.warm(streams[stream])

        def train(predictor, tids: Tuple[Tuple[int, ...], ...]) -> None:
            for program, thread_ids in zip(programs, tids):
                if thread_ids:
                    path = program.recorded_path(instructions)
                    predictor.train(thread_ids, path.branches(instructions))

        for core in self.cores:
            predictor = core.branch_predictor
            tids = tuple(tuple(thread.tid for thread in core.threads
                               if thread.program is program
                               and not thread.is_trailing)
                         for program in programs)
            if any(tids):
                _settle(memo, others, predictor,
                        ("branch", predictor.geometry, tids, layout),
                        partial(train, predictor, tids))
        for hierarchy in self.hierarchies:
            for stream, caches in (("code", hierarchy.l1i),
                                   ("data", hierarchy.l1d),
                                   ("unified", (hierarchy.l2,))):
                for cache in caches:
                    _settle(memo, others, cache,
                            (stream, cache.geometry, layout),
                            partial(warm_cache, cache, stream))

    # -- run loop ---------------------------------------------------------------
    def run(self, max_instructions: int = 10_000,
            max_cycles: Optional[int] = None,
            warmup: int = 0,
            step: Optional[Callable[[], None]] = None) -> RunResult:
        """Run every logical thread for ``max_instructions`` retirements.

        Threads keep executing after reaching their target (so contention
        stays realistic); each thread's IPC is frozen at the cycle it hit
        its own target, the Section 6.4 methodology.

        ``step`` advances the machine one cycle and defaults to
        :meth:`step`.  Observers (the stage profiler, the occupancy
        sampler) pass a step that walks the same :attr:`phases`; the
        post-halt drain always uses :meth:`step`.
        """
        if warmup:
            self.warm(warmup)
        if max_cycles is None:
            max_cycles = max_instructions * 60 + 20_000
        if step is None:
            step = self.step
        self._arm(max_instructions)
        while self.now < max_cycles and not self._halted():
            step()
        return self._finish(max_instructions, max_cycles)

    # -- run-loop pieces -----------------------------------------------------
    def _arm(self, max_instructions: int) -> None:
        """Set retirement targets and attach the forward-progress watchdog."""
        for thread in self._measured.values():
            thread.target_instructions = max_instructions
        if self.watchdog is None and self.config.watchdog_interval > 0:
            from repro.recovery.watchdog import ProgressWatchdog

            self.watchdog = ProgressWatchdog(
                self, interval=self.config.watchdog_interval,
                window=self.config.watchdog_window)

    def _halted(self) -> bool:
        """True when the run loop must stop before ``max_cycles``."""
        if self.abort_reason is not None:
            return True
        if self.watchdog is not None and self.watchdog.verdict is not None:
            return True
        for thread in self._measured.values():
            if thread.stats.done_cycle is None and not thread.done:
                return False
        return True

    def _finish(self, max_instructions: int, max_cycles: int) -> RunResult:
        """Drain, resolve the termination verdict, and collect results."""
        drained = True
        wedged = (self.abort_reason is not None
                  or (self.watchdog is not None
                      and self.watchdog.verdict is not None))
        if not wedged:
            drained = self._drain(max_cycles)
        if self.recovery is not None:
            self.recovery.finalize()
        result = self._collect(max_instructions)
        result.drain_truncated = not drained

        incomplete = any(t.stats.done_cycle is None and not t.done
                         for t in self._measured.values())
        if self.abort_reason is not None:
            result.termination = self.abort_reason
            if self.recovery is not None:
                result.recovery = self.recovery.stats.summary()
            run_log.warning(
                f"{self.kind}: run aborted {result.termination.value} "
                f"at cycle {self.now}")
        elif self.watchdog is not None and self.watchdog.verdict is not None:
            result.termination = self.watchdog.verdict
            if self.watchdog.report is not None:
                result.hang_report = self.watchdog.report.to_dict()
                # One line to the log; full forensics live in the result
                # (a campaign of wedged runs must not flood stderr).
                run_log.warning(
                    f"{self.kind}: "
                    + self.watchdog.report.format().splitlines()[0].lstrip("# "))
            if self.recovery is not None:
                result.recovery = self.recovery.stats.summary()
        elif incomplete:
            result.termination = Termination.CYCLE_LIMIT
            lagging = sorted(
                name for name, t in self._measured.items()
                if t.stats.done_cycle is None and not t.done)
            run_log.warning(
                f"{self.kind}: cycle limit {max_cycles} reached before "
                f"{', '.join(lagging)} hit the {max_instructions}-instruction "
                f"target (termination=cycle-limit, not a completed run)")
            if self.recovery is not None:
                result.recovery = self.recovery.stats.summary()
        else:
            if self.recovery is not None:
                result.recovery = self.recovery.stats.summary()
                if self.recovery.stats.recoveries:
                    result.termination = Termination.RECOVERED
            if not drained:
                run_log.warning(
                    f"{self.kind}: drain grace expired at cycle {self.now} "
                    f"with stores still queued; final memory image may be "
                    f"incomplete")
        return result

    def _drain(self, max_cycles: int, grace: int = 20_000) -> bool:
        """Let in-flight stores leave the machine after the measured
        threads finish (trailing threads may still need to retire their
        copies so leading stores can verify and drain).

        Only needed when a program actually terminated (HALT): the final
        memory image must include its last stores.  Instruction-count
        runs of non-terminating workloads skip this — their store queues
        are never durably empty and their IPCs were frozen at the target
        already.

        Returns ``True`` when the drain completed (or was not needed) and
        ``False`` when the grace deadline expired with stores still
        queued — a truncated final memory image the caller must surface.
        """
        if not any(thread.done for thread in self._measured.values()):
            return True
        deadline = min(self.now + grace, max_cycles + grace)
        while self.now < deadline:
            if not any(thread.store_queue
                       for core in self.cores for thread in core.threads):
                return True
            self.step()
        return not any(thread.store_queue
                       for core in self.cores for thread in core.threads)

    # -- one cycle -------------------------------------------------------
    @cached_property
    def phases(self) -> Tuple[Phase, ...]:
        """One cycle as ``(stage, phase)`` pairs, in the order :meth:`step`
        calls them with the current cycle: the fault injector, every
        simulated core's :attr:`Core.phases`, RMT verification and
        recovery, every simulated memory hierarchy, then advancing
        ``now`` under the watchdog.

        Built on first use, after the subclass added its cores and
        hierarchies and :meth:`_begin` settled which are simulated;
        ``stage`` is what the stage profiler charges.
        """
        self._begin()
        return (("queue", self._inject),
                *(phase for core in self.cores for phase in core.phases),
                ("verify", self._verify),
                *(("commit", memory.tick) for memory in self.hierarchies),
                ("verify", self._advance))

    @cached_property
    def _phase_calls(self) -> Tuple[Callable[[int], None], ...]:
        """:attr:`phases` without the stage tags: what :meth:`step` calls."""
        return tuple(phase for _, phase in self.phases)

    def step(self) -> None:
        now = self.now
        for phase in self._phase_calls:
            phase(now)

    def _inject(self, now: int) -> None:
        if self.injector is not None:
            self.injector.tick(now)

    def _verify(self, now: int) -> None:
        """Machine-specific verification (RMT controllers), then recovery."""
        if self.recovery is not None:
            self.recovery.tick(now)

    def _advance(self, now: int) -> None:
        self.now = now + 1
        if self.watchdog is not None:
            self.watchdog.observe(self.now)

    # -- results ---------------------------------------------------------------------
    def _collect(self, target: int) -> RunResult:
        threads = []
        for name, hw in self._measured.items():
            cycles = hw.stats.done_cycle
            if cycles is None:
                cycles = self.now
            threads.append(ThreadResult(name=name, retired=min(
                hw.stats.retired, target), cycles=cycles))
        return RunResult(kind=self.kind, cycles=self.now, threads=threads,
                         fault_events=list(self.fault_events),
                         stats=self.machine_stats())

    def machine_stats(self) -> Dict[str, float]:
        stats: Dict[str, float] = {}
        for core_id, core in self.reported_cores:
            prefix = f"core{core_id}."
            stats[prefix + "cycles"] = self.now
            stats[prefix + "retired"] = core.stats.retired_total
            stats[prefix + "squashes"] = core.stats.squashes
            stats[prefix + "line_mispredict_rate"] = (
                core.line_predictor.stats.misprediction_rate)
            stats[prefix + "branch_mispredict_rate"] = (
                core.branch_predictor.stats.conditional_misprediction_rate)
            for thread in core.threads:
                tprefix = f"{prefix}t{thread.tid}."
                ts = thread.stats
                stats[tprefix + "retired"] = ts.retired
                stats[tprefix + "mispredicts"] = ts.branch_mispredicts
                stats[tprefix + "misfetches"] = ts.misfetches
                stats[tprefix + "violations"] = ts.memory_violations
                stats[tprefix + "squashed"] = ts.squashed_uops
                if ts.store_lifetime_count:
                    stats[tprefix + "store_lifetime_avg"] = (
                        ts.store_lifetime_sum / ts.store_lifetime_count)
        for hierarchy in self.hierarchies:
            stats.update(hierarchy.stats_summary())
        if self.recovery is not None:
            stats.update(self.recovery.machine_stats())
        return stats


#: Most entries one program's warm-up memo holds (``Program._warm``): a
#: sweep over cache or predictor geometries or warm-up lengths adds
#: entries, and past this many a warm-up replays without publishing.
WARM_MEMO_LIMIT = 256


def _warm_streams(measured: List[HwThread],
                  instructions: int) -> Dict[str, List[int]]:
    """The addresses a warm-up installs, per stream: every L1I takes the
    code addresses, every L1D the data addresses and every L2 both in
    step order, each thread's steps after the previous thread's."""
    code: List[int] = []
    data: List[int] = []
    unified: List[int] = []
    for hw in measured:
        path = hw.program.recorded_path(instructions)
        thread_code = hw.code_addrs(path.pcs[:instructions])
        for block, addr in zip(thread_code, path.data(instructions)):
            unified.append(block)
            if addr is not None:
                block = hw.phys_addr(addr)
                data.append(block)
                unified.append(block)
        code += thread_code
    return {"code": code, "data": data, "unified": unified}


def _settle(memo: Dict[tuple, tuple], others: Tuple[Program, ...],
            structure, key: tuple, replay: Callable[[], None]) -> None:
    """Give ``structure`` (a cache or a branch predictor) its warmed state
    for ``key``: restore the entry ``memo`` holds for these ``others``
    into a pristine structure, or else ``replay()``, and publish a copy
    of the state a replay from pristine reached."""
    pristine = structure.is_pristine()
    if pristine:
        entry = memo.get(key)
        if entry is not None and all(
                mine is theirs for mine, theirs in zip(others, entry[0])):
            structure.restore(entry[1])
            return
    replay()
    if pristine and len(memo) < WARM_MEMO_LIMIT:
        memo[key] = (others, structure.snapshot())


def partition(total: int, parts: int) -> int:
    """Static partitioning of a shared structure (Section 3.4)."""
    return total // max(parts, 1)


class BaseMachine(Machine):
    """The base SMT processor running independent logical threads.

    ``duplicate`` runs every program twice as two independent hardware
    threads with *separate* address spaces and no replication/comparison
    — the paper's "Base2" reference point in Figure 6.
    """

    kind = "base"

    def __init__(self, config: MachineConfig, programs: List[Program],
                 duplicate: bool = False) -> None:
        super().__init__(config)
        hierarchy = MemoryHierarchy(config.hierarchy, num_cores=1)
        self.hierarchies.append(hierarchy)
        core = Core(0, config.core, hierarchy, self.memory,
                    trailing_priority=config.trailing_priority)
        self.cores.append(core)

        copies = 2 if duplicate else 1
        hw_count = len(programs) * copies
        lq = partition(config.core.load_queue_entries, hw_count)
        sq = partition(config.core.store_queue_entries, hw_count)
        asid = 0
        for program in programs:
            for copy in range(copies):
                thread = core.add_thread(program, ThreadRole.SINGLE,
                                         asid=asid, lq_capacity=lq,
                                         sq_capacity=sq)
                asid += 1
                if copy == 0:
                    self._register_logical_thread(program.name, thread)


def make_machine(kind: str, config: MachineConfig,
                 programs: List[Program], **kwargs) -> Machine:
    """Build a machine by kind: base / base2 / srt / lockstep / crt."""
    from repro.core.crt import CrtMachine
    from repro.core.lockstep import LockstepMachine
    from repro.core.srt import SrtMachine

    kinds = {
        "base": lambda: BaseMachine(config, programs, **kwargs),
        "base2": lambda: BaseMachine(config, programs, duplicate=True,
                                     **kwargs),
        "srt": lambda: SrtMachine(config, programs, **kwargs),
        "lockstep": lambda: LockstepMachine(config, programs, **kwargs),
        "crt": lambda: CrtMachine(config, programs, **kwargs),
    }
    try:
        builder = kinds[kind]
    except KeyError:
        raise ValueError(
            f"unknown machine kind {kind!r}; expected one of {sorted(kinds)}"
        ) from None
    return builder()
