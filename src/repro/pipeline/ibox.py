"""IBOX: thread chooser, line-prediction-driven fetch, chunk building.

Per cycle the IBOX fetches up to two 8-instruction chunks from a single
thread (Table 1).  The thread chooser approximates ICOUNT by picking the
thread with the fewest instructions in its rate-matching buffer
(Section 3.1); under RMT, trailing threads with line-prediction-queue
data available get priority, which the paper found performed best
(Section 4.4).

Leading/single threads fetch down the line predictor's predicted path,
verified by the branch/jump/return predictors (a disagreement is a
misfetch: the line predictor is retrained and fetch re-initiated).
Trailing threads fetch the exact retired path of their leading
counterpart out of the line prediction queue and therefore never
misfetch or mispredict.
"""

from typing import TYPE_CHECKING, List, Optional

from repro.pipeline.thread import HwThread
from repro.pipeline.uop import FetchChunk, Uop

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.core import Core


class IBox:
    def __init__(self, core: "Core") -> None:
        self.core = core
        self.config = core.config
        self._rotation = 0

    # -- thread chooser ---------------------------------------------------
    def _chooser_load(self, thread: HwThread) -> int:
        """Occupancy metric for the thread chooser.

        The base machine approximates ICOUNT with the rate-matching-
        buffer occupancy; the "icount" policy counts every pre-issue
        instruction (RMB chunks plus queue residents).
        """
        if self.config.fetch_policy == "icount":
            buffered = sum(len(chunk) for chunk in thread.rmb)
            buffered += thread.rmb_inflight * self.config.chunk_size
            return buffered + thread.iq_occupancy
        return thread.rmb_load()

    def choose_thread(self, now: int) -> Optional[HwThread]:
        """The fetchable thread with the lowest chooser load, ties broken
        by a rotating thread order; under ``trailing_priority`` any
        fetchable trailing thread goes before every other thread."""
        core = self.core
        hooks = core.hooks
        threads = core.threads
        count = len(threads)
        rotation = self._rotation + 1
        icount = self.config.fetch_policy == "icount"
        chosen = None
        chosen_first = False
        chosen_load = chosen_order = 0
        for thread in threads:
            if (thread.done or thread.fetch_halted
                    or now < thread.fetch_stalled_until):
                continue
            rmb_load = len(thread.rmb) + thread.rmb_inflight
            if rmb_load >= thread.rmb_capacity - 1:
                continue
            first = False
            if thread.is_trailing:
                if thread.fetch_via_lpq:
                    if not hooks.trailing_fetch_ready(core, thread, now):
                        continue
                elif not hooks.trailing_may_fetch(core, thread, now):
                    continue
                first = core.trailing_priority
            if chosen_first and not first:
                continue
            load = self._chooser_load(thread) if icount else rmb_load
            order = (thread.tid + rotation) % count
            if (chosen is None or first and not chosen_first
                    or load < chosen_load
                    or load == chosen_load and order < chosen_order):
                chosen = thread
                chosen_first = first
                chosen_load = load
                chosen_order = order
        if chosen is not None:
            self._rotation = rotation
        return chosen

    # -- per-cycle fetch ---------------------------------------------------
    def fetch(self, now: int) -> None:
        thread = self.choose_thread(now)
        if thread is None:
            return
        if thread.is_trailing and thread.fetch_via_lpq:
            self._fetch_trailing(thread, now)
        else:
            self._fetch_leading(thread, now)

    # -- leading / single-thread fetch --------------------------------------
    def _fetch_leading(self, thread: HwThread, now: int) -> None:
        core = self.core
        line_predictor = core.line_predictor
        pc = thread.fetch_pc
        for _ in range(self.config.fetch_chunks_per_cycle):
            if (thread.fetch_halted or len(thread.rmb) + thread.rmb_inflight
                    >= thread.rmb_capacity):
                break
            avail = core.hierarchy.fetch(
                core.core_id, thread.code_addr(pc), now)
            if avail > now:
                thread.fetch_stalled_until = avail
                thread.stats.fetch_icache_stall_cycles += avail - now
                break
            proposal = line_predictor.predict(pc)
            thread.stats.line_predictions += 1
            chunk = self._build_chunk(thread, pc, now)
            thread.rmb_inflight += 1
            core.fetch_pipe.push((thread.tid, chunk), now)
            pc = chunk.next_pc
            if not line_predictor.verify(
                    chunk.start_pc, proposal, chunk.next_pc):
                # Misfetch: retrained above; re-initiate fetch after a bubble.
                thread.stats.misfetches += 1
                thread.fetch_stalled_until = now + self.config.misfetch_penalty
                break
        thread.fetch_pc = pc

    def _build_chunk(self, thread: HwThread, pc: int, now: int) -> FetchChunk:
        """Fetch up to ``chunk_size`` instructions, stopping at the first
        predicted-taken control instruction (or HALT)."""
        instructions = thread.program.instructions
        wrap = thread.program_length
        core = self.core
        tid = thread.tid
        uops: List[Uop] = []
        cur = pc % wrap
        next_pc = cur
        seq = core.last_seq
        for _ in range(self.config.chunk_size):
            seq += 1
            uop = Uop(seq, tid, cur, instructions[cur], now)
            info = uop.info
            taken = False
            if info.is_control:
                taken = self._predict_control(thread, uop, cur)
            uops.append(uop)
            if info.is_halt:
                thread.fetch_halted = True
                next_pc = cur
                break
            if taken:
                next_pc = uop.pred_target
                break
            cur = (cur + 1) % wrap
            next_pc = cur
        core.last_seq = seq
        return FetchChunk(tid, pc % wrap, uops, next_pc, now)

    def _predict_control(self, thread: HwThread, uop: Uop, pc: int) -> bool:
        """Fill the uop's prediction; returns predicted-taken."""
        core = self.core
        instr = uop.instr
        info = uop.info
        wrap = thread.program_length
        fallthrough = (pc + 1) % wrap
        if info.is_conditional:
            taken = core.branch_predictor.predict_conditional(thread.tid, pc)
            target = instr.target if taken else fallthrough
        elif info.is_call:
            ras = core.ras[thread.tid]
            uop.ras_snapshot = list(ras._stack)
            ras.push(fallthrough)
            taken, target = True, instr.target
        elif info.is_return:
            ras = core.ras[thread.tid]
            uop.ras_snapshot = list(ras._stack)
            predicted = ras.predict_pop()
            taken = True
            target = predicted if predicted is not None else fallthrough
        elif info.is_indirect:  # JMP
            predicted = core.jump_predictor.predict(pc)
            taken = True
            target = predicted if predicted is not None else fallthrough
        else:  # BR
            taken, target = True, instr.target
        uop.pred_taken = taken
        uop.pred_target = target % wrap
        return taken

    # -- trailing-thread fetch -----------------------------------------------
    def _fetch_trailing(self, thread: HwThread, now: int) -> None:
        """Fetch exact chunks from the line prediction queue."""
        core = self.core
        for _ in range(self.config.fetch_chunks_per_cycle):
            if len(thread.rmb) + thread.rmb_inflight >= thread.rmb_capacity:
                break
            spec = core.hooks.trailing_peek_chunk(core, thread, now)
            if spec is None:
                break
            start_pc, pcs, next_pc, half_hints = spec
            # The address driver accepts the prediction (active head moves),
            # then probes the cache; on a miss the LPQ rolls the active head
            # back to the recovery head and re-sends after the fill.
            core.hooks.trailing_ack_chunk(core, thread, now)
            avail = core.hierarchy.fetch(
                core.core_id, thread.code_addr(start_pc), now)
            if avail > now:
                core.hooks.trailing_rollback_chunk(core, thread, now)
                thread.fetch_stalled_until = avail
                thread.stats.fetch_icache_stall_cycles += avail - now
                break
            core.hooks.trailing_commit_chunk(core, thread, now)
            chunk = self._build_trailing_chunk(
                thread, start_pc, pcs, next_pc, half_hints, now)
            thread.rmb_inflight += 1
            core.fetch_pipe.push((thread.tid, chunk), now)

    def _build_trailing_chunk(self, thread: HwThread, start_pc: int,
                              pcs: List[int], next_pc: int,
                              half_hints: Optional[List[Optional[int]]],
                              now: int) -> FetchChunk:
        core = self.core
        instructions = thread.program.instructions
        wrap = thread.program_length
        tid = thread.tid
        uops: List[Uop] = []
        seq = core.last_seq
        for position, pc in enumerate(pcs):
            seq += 1
            uop = Uop(seq, tid, pc, instructions[pc], now, True)
            info = uop.info
            if info.is_control:
                follower = (pcs[position + 1] if position + 1 < len(pcs)
                            else next_pc)
                uop.pred_target = follower
                uop.pred_taken = follower != (pc + 1) % wrap
            if half_hints is not None:
                uop.lpq_half_hint = half_hints[position]
            if info.is_halt:
                thread.fetch_halted = True
            uops.append(uop)
        core.last_seq = seq
        return FetchChunk(tid, start_pc, uops, next_pc, now, half_hints)
