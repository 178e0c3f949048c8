"""The SRT/CRT inter-thread queue protocol as a transition system.

The paper's leading/trailing threads communicate only through bounded
queues: the line-prediction queue (the branch-outcome-queue descendant,
``core/lpq.py``), the load value queue (``core/lvq.py``), the leading
store queue + store comparator (``core/store_comparator.py``), the
explicit slack gate (``core/rmt.py:_slack_satisfied``), and — with
recovery enabled — the checkpoint ring (``recovery/checkpoint.py``).
Mis-sizing or mis-ordering any hand-off deadlocks the pair or corrupts
the sphere of replication.  This module extracts that protocol into a
small explicit-state model that :mod:`repro.verify.explore` checks
exhaustively.

Model (one redundant pair; abstractions documented in docs/VERIFY.md):

- The program is a short string over ``L`` (load), ``S`` (store), and
  ``I`` (any other instruction); lengths exceed every queue capacity so
  full-queue dynamics are actually exercised.
- ``lead-retire`` — the leading thread retires the next instruction in
  program order.  Gates mirror ``RmtController.can_retire_load``: the
  LPQ must have room (chunks are modelled one instruction long), a
  load also needs LVQ room, a store also needs a leading store-queue
  slot.  Retired instructions enter the LPQ; loads write their value
  (modelled as the program-order load ordinal) to the LVQ; stores
  enter the store queue unverified (or pre-verified under ``nosc``).
- ``trail-fetch`` — the trailing thread pops the LPQ head into its
  out-of-order window, subject to the explicit slack minimum.
- ``trail-exec`` — a load anywhere in the window executes, consuming
  its LVQ entry.  Disciplines: ``associative`` (the shipped design —
  lookup by load-correlation tag, Section 4.1), ``fifo-checked`` (the
  original SRT strict FIFO *with* the head ordering check: a younger
  load waits until the head is its own entry), ``fifo-unchecked`` (the
  seeded mutation: consume the head blind).
- ``trail-retire`` — the window head retires in program order; a store
  also needs a trailing store-queue slot and posts a comparator record.
- ``compare`` — the comparator matches a trailing record against the
  leading store-queue entry with the same store ordinal and marks it
  verified.
- ``drain`` — the leading store-queue head leaves the sphere of
  replication.  The shipped protocol requires it verified; the
  ``commit-before-verify`` mutation drops that requirement.
- ``checkpoint`` — recovery configurations only: at a verified-store
  boundary (both store-side queues empty) the bounded checkpoint ring
  advances, at most once per boundary.

Invariants checked at every reachable state:

- **deadlock-freedom** — every non-final state has an enabled
  transition (checked structurally by the explorer);
- **replication integrity** — each trailing load consumed the LVQ
  entry its own ordinal produced;
- **in-order verified commit** — stores leave the sphere in program
  order and only after output comparison verified them;
- **bounded slack** — retired-leading minus retired-trailing
  instructions never exceed the LPQ capacity plus the trailing window.
"""

import dataclasses
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.core.config import MachineConfig
from repro.verify.explore import (ExploreResult, TransitionSystem, explore)

LOAD, STORE, PLAIN = "L", "S", "I"
LVQ_DISCIPLINES = ("associative", "fifo-checked", "fifo-unchecked")

#: Queue capacities above this are clamped before exploration: the
#: protocol is capacity-symmetric once every queue can hold more than
#: the in-flight window, so small bounds explore the same hand-off
#: structure the 32/64-entry paper sizes ship (docs/VERIFY.md).
CAPACITY_CLAMP = 3


@dataclass(frozen=True)
class ProtocolConfig:
    """One (machine kind × queue sizing × options) point to verify."""

    name: str
    kind: str                     # "srt" | "crt"
    program: str
    lpq_capacity: int
    lvq_capacity: int
    sq_capacity: int              # leading store-queue entries
    trail_sq_capacity: int        # bounds unmatched comparator records
    window: int                   # trailing out-of-order window
    slack_min: int = 0            # explicit slack fetch threshold
    store_comparison: bool = True  # False = the paper's "nosc"
    lvq_discipline: str = "associative"
    commit_unverified: bool = False   # mutation: drain skips verification
    checkpoint_ring: int = 0      # recovery ring size; 0 = disabled

    def validate(self) -> "ProtocolConfig":
        if self.kind not in ("srt", "crt"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.lvq_discipline not in LVQ_DISCIPLINES:
            raise ValueError(
                f"unknown LVQ discipline {self.lvq_discipline!r}")
        if not self.program or set(self.program) - {LOAD, STORE, PLAIN}:
            raise ValueError(f"bad program {self.program!r}")
        return self


class ProtocolState(NamedTuple):
    lead_pos: int                       # next instruction leading retires
    lpq: Tuple[int, ...]                # retired, not yet trailing-fetched
    window: Tuple[Tuple[int, bool], ...]  # (prog index, needs_exec)
    lvq: Tuple[int, ...]                # load ordinals, FIFO order
    sq: Tuple[Tuple[int, bool], ...]    # (store ordinal, verified)
    pending: Tuple[int, ...]            # trailing records awaiting compare
    committed: int                      # stores drained from the sphere
    ring: int                           # retained checkpoints
    ckpt_armed: bool                    # one checkpoint per boundary
    violation: Optional[str]            # sticky invariant break


class ProtocolSystem(TransitionSystem):
    """The queue protocol of one redundant pair, parameterised."""

    def __init__(self, config: ProtocolConfig) -> None:
        self.config = config.validate()
        program = config.program
        self._load_ordinal = []
        self._store_ordinal = []
        loads = stores = 0
        for op in program:
            self._load_ordinal.append(loads)
            self._store_ordinal.append(stores)
            loads += op == LOAD
            stores += op == STORE
        self.total_stores = stores
        self.name = f"protocol/{config.name}"

    # -- plumbing ----------------------------------------------------------
    def initial(self) -> ProtocolState:
        return ProtocolState(
            lead_pos=0, lpq=(), window=(), lvq=(), sq=(), pending=(),
            committed=0, ring=0, ckpt_armed=True, violation=None)

    def is_final(self, state: ProtocolState) -> bool:
        return (state.lead_pos == len(self.config.program)
                and not state.lpq and not state.window and not state.lvq
                and not state.sq and not state.pending)

    def check(self, state: ProtocolState) -> Optional[str]:
        if state.violation is not None:
            return state.violation
        config = self.config
        trail_retired = (state.lead_pos - len(state.lpq)
                         - len(state.window))
        slack = state.lead_pos - trail_retired
        bound = config.lpq_capacity + config.window
        if slack > bound:
            return (f"slack bound exceeded: leading is {slack} "
                    f"instructions ahead, queues hold only {bound}")
        if state.ring > max(1, config.checkpoint_ring):
            return (f"checkpoint ring overflow: {state.ring} retained, "
                    f"capacity {config.checkpoint_ring}")
        return None

    # -- transition relation ----------------------------------------------
    def enabled(self, s: ProtocolState) \
            -> List[Tuple[str, ProtocolState]]:
        if s.violation is not None:
            return []  # counterexamples end at the violating state
        config = self.config
        program = config.program
        out: List[Tuple[str, ProtocolState]] = []

        # lead-retire: gated on room in every queue the op lands in.
        if s.lead_pos < len(program):
            op = program[s.lead_pos]
            room = len(s.lpq) < config.lpq_capacity
            if room and op == LOAD:
                room = len(s.lvq) < config.lvq_capacity
            if room and op == STORE:
                room = len(s.sq) < config.sq_capacity
            if room:
                lvq = s.lvq
                sq = s.sq
                armed = s.ckpt_armed
                if op == LOAD:
                    lvq = lvq + (self._load_ordinal[s.lead_pos],)
                if op == STORE:
                    sq = sq + ((self._store_ordinal[s.lead_pos],
                                not config.store_comparison),)
                    armed = True  # store traffic re-arms the next boundary
                out.append((
                    f"lead-retire/{op}{s.lead_pos}",
                    s._replace(lead_pos=s.lead_pos + 1,
                               lpq=s.lpq + (s.lead_pos,),
                               lvq=lvq, sq=sq, ckpt_armed=armed)))

        # trail-fetch: LPQ head into the window, slack permitting.  The
        # slack gate lifts once the leading thread has retired its whole
        # program: real workloads wrap (rmt.py computes next_pc mod the
        # program length) so the leading thread never finishes; in the
        # finite-program abstraction the trailing thread must be allowed
        # to drain the residue.
        if s.lpq and len(s.window) < config.window:
            trail_retired = (s.lead_pos - len(s.lpq) - len(s.window))
            if (s.lead_pos >= len(program)
                    or s.lead_pos - trail_retired >= config.slack_min):
                index = s.lpq[0]
                needs_exec = program[index] == LOAD
                out.append((
                    f"trail-fetch/{program[index]}{index}",
                    s._replace(lpq=s.lpq[1:],
                               window=s.window + ((index, needs_exec),))))

        # trail-exec: any unexecuted load in the window may fire.
        for slot, (index, needs_exec) in enumerate(s.window):
            if not needs_exec:
                continue
            ordinal = self._load_ordinal[index]
            transition = self._exec_load(s, slot, index, ordinal)
            if transition is not None:
                out.append(transition)

        # trail-retire: the window head, in program order.
        if s.window:
            index, needs_exec = s.window[0]
            if not needs_exec:
                op = program[index]
                if op == STORE and config.store_comparison:
                    if len(s.pending) < config.trail_sq_capacity:
                        out.append((
                            f"trail-retire/S{index}",
                            s._replace(
                                window=s.window[1:],
                                pending=s.pending
                                + (self._store_ordinal[index],))))
                else:
                    out.append((f"trail-retire/{op}{index}",
                                s._replace(window=s.window[1:])))

        # compare: match the oldest pending record still in the queue.
        if s.pending:
            unverified = {ordinal for ordinal, verified in s.sq
                          if not verified}
            matchable = sorted(set(s.pending) & unverified)
            if matchable:
                ordinal = matchable[0]
                sq = tuple((o, True if o == ordinal else v)
                           for o, v in s.sq)
                pending = tuple(o for o in s.pending if o != ordinal)
                out.append((f"compare/S{ordinal}",
                            s._replace(sq=sq, pending=pending)))

        # drain: the store-queue head leaves the sphere.
        if s.sq:
            ordinal, verified = s.sq[0]
            if verified or config.commit_unverified:
                violation = None
                if not verified:
                    violation = (
                        f"store S{ordinal} left the sphere of "
                        f"replication before output comparison "
                        f"verified it")
                elif ordinal != s.committed:
                    violation = (
                        f"out-of-order commit: store S{ordinal} "
                        f"drained at commit position {s.committed}")
                out.append((f"drain/S{ordinal}",
                            s._replace(sq=s.sq[1:],
                                       committed=s.committed + 1,
                                       violation=violation)))

        # checkpoint: verified-store boundary, bounded ring, once per
        # boundary (re-armed by the next store retirement).
        if (config.checkpoint_ring and s.ckpt_armed
                and not s.sq and not s.pending):
            ring = min(s.ring + 1, config.checkpoint_ring)
            out.append(("checkpoint",
                        s._replace(ring=ring, ckpt_armed=False)))
        return out

    def _exec_load(self, s: ProtocolState, slot: int, index: int,
                   ordinal: int) -> Optional[Tuple[str, ProtocolState]]:
        config = self.config
        label = f"trail-exec/L{index}"
        if config.lvq_discipline == "associative":
            if ordinal not in s.lvq:
                return None  # value not forwarded yet
            consumed = ordinal
            lvq = tuple(o for o in s.lvq if o != ordinal)
        else:
            if not s.lvq:
                return None
            if (config.lvq_discipline == "fifo-checked"
                    and s.lvq[0] != ordinal):
                return None  # head check: wait for our own entry
            consumed = s.lvq[0]
            lvq = s.lvq[1:]
        violation = s.violation
        if consumed != ordinal:
            violation = (
                f"replication integrity: trailing load L{index} "
                f"(ordinal {ordinal}) consumed the LVQ entry of "
                f"ordinal {consumed}")
        window = (s.window[:slot] + ((index, False),)
                  + s.window[slot + 1:])
        return label, s._replace(window=window, lvq=lvq,
                                 violation=violation)

    # -- independence ------------------------------------------------------
    def footprint(self, label: str) -> FrozenSet[str]:
        verb = label.split("/", 1)[0]
        if verb == "lead-retire":
            # Reads/writes the leading position and every producer-side
            # queue; touches the checkpoint arm on stores.
            parts = {"lead", "lpq", "lvq", "sq", "ckpt"}
            return frozenset(parts)
        if verb == "trail-fetch":
            parts = {"lpq", "window"}
            if self.config.slack_min:
                parts.add("lead")  # slack gate reads the leading position
            return frozenset(parts)
        if verb == "trail-exec":
            return frozenset({"window", "lvq"})
        if verb == "trail-retire":
            return frozenset({"window", "pending"})
        if verb == "compare":
            return frozenset({"pending", "sq"})
        if verb == "drain":
            return frozenset({"sq", "committed"})
        if verb == "checkpoint":
            return frozenset({"sq", "pending", "ring", "ckpt"})
        return frozenset(("*",))


# -- configurations --------------------------------------------------------

def _clamp(value: int, cap: int = CAPACITY_CLAMP) -> int:
    return min(int(value), cap)


def _program_for(lpq: int, lvq: int, sq: int, window: int) -> str:
    """A deterministic workload long enough to fill every queue twice:
    a rotating L/S/I mix so loads, stores, and plain instructions all
    cross every hand-off."""
    length = max(6, 2 * max(lpq, lvq, sq, window, 1))
    length = min(length, 10)
    pattern = (LOAD, STORE, PLAIN, STORE)
    return "".join(pattern[i % len(pattern)] for i in range(length))


def from_machine_config(name: str, kind: str, config: MachineConfig,
                        hw_threads: int = 2,
                        lvq_discipline: str = "associative",
                        ) -> ProtocolConfig:
    """Extract one protocol point from a real :class:`MachineConfig`.

    Store-queue partitioning mirrors ``SrtMachine``/``CrtMachine``:
    static partition over the core's hardware threads unless the ptsq
    option gives every thread the full queue.  Capacities are clamped
    (:data:`CAPACITY_CLAMP`) before exploration.
    """
    if config.per_thread_store_queues:
        sq = config.core.store_queue_entries
    else:
        sq = max(1, config.core.store_queue_entries // max(1, hw_threads))
    lpq = _clamp(config.lpq_entries)
    lvq = _clamp(config.lvq_entries)
    sq = _clamp(sq)
    window = 2
    slack = min(config.srt_slack_instructions, 2)
    return ProtocolConfig(
        name=name, kind=kind,
        program=_program_for(lpq, lvq, sq, window),
        lpq_capacity=lpq, lvq_capacity=lvq, sq_capacity=sq,
        trail_sq_capacity=sq, window=window, slack_min=slack,
        store_comparison=config.store_comparison,
        lvq_discipline=lvq_discipline,
        checkpoint_ring=(config.recovery_max_attempts
                         if config.recovery_enabled else 0),
    ).validate()


def shipped_configurations() -> List[ProtocolConfig]:
    """Every (srt|crt) × queue-sizing point the shipped profiles use,
    plus a boundary sweep over the small-capacity cross-product.

    The named points mirror the experiment variants in
    ``harness/experiments.py`` (default, ptsq, nosc, two-program
    partitioning, explicit slack, strict-FIFO LVQ, recovery); the sweep
    walks every combination of clamped queue sizes so a hand-off that
    only deadlocks at a specific sizing cannot hide.
    """
    configs: List[ProtocolConfig] = []
    base = MachineConfig()
    ptsq = MachineConfig(per_thread_store_queues=True)
    nosc = MachineConfig(store_comparison=False)
    slack = MachineConfig(srt_slack_instructions=32)
    recovery = MachineConfig(recovery_enabled=True)
    for kind in ("srt", "crt"):
        configs.append(from_machine_config(f"{kind}-default", kind, base))
        configs.append(from_machine_config(f"{kind}-ptsq", kind, ptsq))
        configs.append(from_machine_config(f"{kind}-nosc", kind, nosc))
        configs.append(from_machine_config(
            f"{kind}-two-program", kind, base, hw_threads=4))
        configs.append(from_machine_config(
            f"{kind}-slack", kind, slack))
        configs.append(from_machine_config(
            f"{kind}-fifo-lvq", kind, base,
            lvq_discipline="fifo-checked"))
        configs.append(from_machine_config(
            f"{kind}-recovery", kind, recovery))
        for lpq in (1, 2):
            for lvq in (1, 2):
                for sq in (1, 2):
                    configs.append(ProtocolConfig(
                        name=f"{kind}-sweep-lpq{lpq}-lvq{lvq}-sq{sq}",
                        kind=kind,
                        program=_program_for(lpq, lvq, sq, 2),
                        lpq_capacity=lpq, lvq_capacity=lvq,
                        sq_capacity=sq, trail_sq_capacity=sq,
                        window=2).validate())
    return configs


def demo_configuration() -> ProtocolConfig:
    """The small fixed point the mutation fixtures are seeded on."""
    return ProtocolConfig(
        name="demo", kind="srt", program="LLSI",
        lpq_capacity=2, lvq_capacity=2, sq_capacity=2,
        trail_sq_capacity=2, window=2,
        lvq_discipline="fifo-checked").validate()


# -- mutations -------------------------------------------------------------

def _mutate_boq_zero(config: ProtocolConfig) -> ProtocolConfig:
    return dataclasses.replace(config, name=config.name + "+boq-zero",
                               lpq_capacity=0)


def _mutate_lvq_unchecked(config: ProtocolConfig) -> ProtocolConfig:
    return dataclasses.replace(config,
                               name=config.name + "+lvq-unchecked",
                               lvq_discipline="fifo-unchecked")


def _mutate_commit_before_verify(config: ProtocolConfig) -> ProtocolConfig:
    return dataclasses.replace(
        config, name=config.name + "+commit-before-verify",
        commit_unverified=True)


#: The three seeded protocol mutations (docs/VERIFY.md): each must
#: produce a golden-matched minimal counterexample, proving the
#: verifier actually discriminates.
MUTATIONS = {
    "boq-zero": _mutate_boq_zero,
    "lvq-unchecked": _mutate_lvq_unchecked,
    "commit-before-verify": _mutate_commit_before_verify,
}


def verify_protocol(config: ProtocolConfig, por: bool = True,
                    mutation: Optional[str] = None,
                    max_states: Optional[int] = None) -> ExploreResult:
    """Explore one configuration (optionally mutated) exhaustively."""
    if mutation is not None:
        config = MUTATIONS[mutation](config)
    kwargs: Dict[str, int] = {}
    if max_states is not None:
        kwargs["max_states"] = max_states
    return explore(ProtocolSystem(config), por=por, **kwargs)
