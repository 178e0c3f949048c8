"""Extension points the RMT machinery plugs into the base pipeline.

The base core calls these hooks at well-defined points; the default
implementation is a no-op base machine.  ``repro.core`` provides SRT and
CRT controllers implementing input replication (load value queue, line
prediction queue) and output comparison (store comparator) on top of
them.  Keeping the pipeline free of RMT knowledge mirrors the paper's
framing: SRT is a set of *extensions* to an existing commercial design.

Two rules keep the hooks off the per-uop paths of machines they do
nothing on:

- The core calls ``on_uop_retired``, ``can_retire_load``,
  ``on_load_retired`` and ``on_store_retired`` only when the installed
  hooks object overrides their default (:func:`acting`); assigning
  ``Core.hooks`` rebinds them.
- The QBOX asks ``queue_half_for`` only for a trailing thread's uops:
  every other uop takes its default half.
"""

from typing import TYPE_CHECKING, Callable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.pipeline.core import Core
    from repro.pipeline.thread import HwThread
    from repro.pipeline.uop import Uop


class CoreHooks:
    """No-op hooks: a plain (non-redundant) base machine."""

    # -- retirement-side (QBOX completion unit) -------------------------
    def on_uop_retired(self, core: "Core", thread: "HwThread", uop: "Uop",
                       now: int) -> None:
        """Called for every retiring uop (LPQ chunk aggregation point)."""

    def on_membar_blocked(self, core: "Core", thread: "HwThread",
                          now: int) -> None:
        """ROB head is a memory barrier that cannot retire yet."""

    def on_partial_store_block(self, core: "Core", thread: "HwThread",
                               store_uop: "Uop", now: int) -> None:
        """A load is blocked by partial forwarding from ``store_uop``."""

    def can_retire_load(self, core: "Core", thread: "HwThread", uop: "Uop",
                        now: int) -> bool:
        """False stalls retirement (e.g. the load value queue is full)."""
        return True

    def on_load_retired(self, core: "Core", thread: "HwThread", uop: "Uop",
                        now: int) -> None:
        """A leading/single-thread load retired (LVQ write point)."""

    def store_needs_verification(self, thread: "HwThread") -> bool:
        """True when retired stores must wait for output comparison."""
        return False

    def on_store_retired(self, core: "Core", thread: "HwThread", uop: "Uop",
                         now: int) -> None:
        """A store retired (trailing stores trigger the comparator here)."""

    def on_store_drained(self, core: "Core", thread: "HwThread", uop: "Uop",
                         now: int) -> None:
        """A store left the store queue for the merge buffer."""

    # -- fetch-side (IBOX) -------------------------------------------------
    def trailing_fetch_ready(self, core: "Core", thread: "HwThread",
                             now: int) -> bool:
        """Does the line prediction queue have a chunk for ``thread``?"""
        return False

    def trailing_may_fetch(self, core: "Core", thread: "HwThread",
                           now: int) -> bool:
        """Gate for predictor-mode trailing threads (slack fetch)."""
        return True

    def trailing_peek_chunk(self, core: "Core", thread: "HwThread",
                            now: int) -> Optional[tuple]:
        """Next LPQ chunk spec: (start_pc, pcs, next_pc, half_hints)."""
        return None

    def trailing_ack_chunk(self, core: "Core", thread: "HwThread",
                           now: int) -> None:
        """The address driver accepted the prediction (advance the LPQ
        active head)."""

    def trailing_commit_chunk(self, core: "Core", thread: "HwThread",
                              now: int) -> None:
        """The chunk's instructions were fetched from the cache (advance
        the LPQ recovery head)."""

    def trailing_rollback_chunk(self, core: "Core", thread: "HwThread",
                                now: int) -> None:
        """Instruction-cache miss: roll the LPQ active head back to the
        recovery head so the predictions are re-sent."""

    # -- execute-side (MBOX / EBOX) ----------------------------------------
    def trailing_load_probe(self, core: "Core", thread: "HwThread",
                            uop: "Uop", now: int) -> Optional[Tuple[int, int]]:
        """LVQ associative lookup; returns (address, value) or None."""
        return None

    def trailing_load_consume(self, core: "Core", thread: "HwThread",
                              uop: "Uop", now: int) -> None:
        """Deallocate the LVQ entry the load just read."""

    def on_trailing_divergence(self, core: "Core", thread: "HwThread",
                               uop: "Uop", kind: str, now: int) -> None:
        """Redundant threads disagreed (fault detected)."""

    def queue_half_for(self, core: "Core", thread: "HwThread",
                       uop: "Uop", default_half: int) -> int:
        """Instruction-queue half steering (preferential space
        redundancy); asked for trailing threads' uops only."""
        return default_half

    # -- bookkeeping ---------------------------------------------------------
    def on_squash(self, core: "Core", thread: "HwThread", from_seq: int,
                  now: int) -> None:
        """Uops of ``thread`` younger than ``from_seq`` were squashed."""


def acting(hooks: CoreHooks, name: str) -> Optional[Callable]:
    """``hooks``' bound hook ``name``, or ``None`` when neither its
    class nor the instance overrides :class:`CoreHooks`' default."""
    method = getattr(hooks, name)
    default = getattr(CoreHooks, name)
    return None if getattr(method, "__func__", None) is default else method
