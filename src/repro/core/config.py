"""Machine-level configuration: Table 1 plus the RMT design options the
paper evaluates."""

import dataclasses
import json
from dataclasses import dataclass, field

from repro.memory.hierarchy import HierarchyConfig
from repro.pipeline.config import CoreConfig


@dataclass
class MachineConfig:
    core: CoreConfig = field(default_factory=CoreConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)

    # -- SRT options (Sections 4.1-4.5, 7.1) ------------------------------
    #: Per-thread 64-entry store queues instead of statically partitioning
    #: one 64-entry queue (the paper's ptsq proposal).
    per_thread_store_queues: bool = False
    #: False disables output comparison: leading stores release at retire
    #: (the paper's "SRT + nosc" upper bound).
    store_comparison: bool = True
    #: Steer trailing instructions to the opposite instruction-queue half.
    preferential_space_redundancy: bool = True
    #: Give trailing threads fetch priority when LPQ data is available.
    trailing_priority: bool = True
    #: Load value queue entries (sized like the store queue, Section 4.1).
    lvq_entries: int = 64
    #: Line prediction queue entries (chunks).
    lpq_entries: int = 32
    #: QBOX-to-IBOX line-prediction forwarding latency (Section 6.3).
    srt_line_forward_latency: int = 4
    #: QBOX-to-MBOX load-value forwarding latency (Section 6.3).
    srt_load_forward_latency: int = 2
    #: Flush a partial LPQ aggregation chunk after this many idle cycles.
    lpq_flush_timeout: int = 24
    #: How trailing threads fetch: "lpq" (the paper's line prediction
    #: queue) or "predictors" (the rejected Section 4.4 alternative: the
    #: trailing thread fetches through the shared line/branch predictors,
    #: misfetching and mispredicting like any other thread).
    trailing_fetch_mode: str = "lpq"
    #: Explicit slack fetch (Section 2.3): minimum number of retired
    #: instructions the leading thread must be ahead before the trailing
    #: thread may fetch.  0 relies on the LPQ's natural gating, which the
    #: paper found sufficient (Section 4.4).
    srt_slack_instructions: int = 0

    # -- CMP options (Sections 5, 6.3) --------------------------------------
    #: Extra latency to cross between cores (CRT forwarding penalty).
    crt_cross_latency: int = 4
    #: Lockstep checker latency: 0 for Lock0, 8 for Lock8.
    checker_latency: int = 8

    # -- robustness / recovery (repro.recovery, docs/RECOVERY.md) ------------
    #: Cycles between forward-progress fingerprints (0 disables the
    #: watchdog entirely — runs may then truncate silently).
    watchdog_interval: int = 64
    #: Cycles with zero measured-thread retirement before the watchdog
    #: declares the machine HUNG/LIVELOCK.  Must comfortably exceed the
    #: longest legitimate stall (an L2 miss burst is O(100) cycles).
    watchdog_window: int = 4096
    #: Enable SRTR-style checkpoint/rollback recovery on SRT/CRT
    #: machines: detection events trigger rollback-and-replay instead of
    #: being terminal.
    recovery_enabled: bool = False
    #: Minimum cycles between architectural checkpoints (taken at the
    #: next verified-store boundary at or after the mark).
    checkpoint_interval: int = 400
    #: Checkpoints retained for escalating rollback; a fault that
    #: re-detects after every retained checkpoint is UNRECOVERABLE.
    recovery_max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.trailing_fetch_mode not in ("lpq", "predictors"):
            raise ValueError(
                f"trailing_fetch_mode must be 'lpq' or 'predictors', not "
                f"{self.trailing_fetch_mode!r}")

    # -- serialisation (experiment reproducibility) --------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "MachineConfig":
        data = dict(data)
        core = CoreConfig(**data.pop("core", {}))
        hierarchy = HierarchyConfig(**data.pop("hierarchy", {}))
        unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown MachineConfig fields: {unknown}")
        return cls(core=core, hierarchy=hierarchy, **data)

    @classmethod
    def from_json(cls, text: str) -> "MachineConfig":
        return cls.from_dict(json.loads(text))
