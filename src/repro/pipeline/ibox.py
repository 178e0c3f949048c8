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
    def _fetchable(self, thread: HwThread, now: int) -> bool:
        if thread.done or thread.fetch_halted:
            return False
        if now < thread.fetch_stalled_until:
            return False
        if thread.rmb_load() >= thread.rmb.capacity - 1:
            return False
        if thread.is_trailing:
            if thread.fetch_via_lpq:
                return self.core.hooks.trailing_fetch_ready(
                    self.core, thread, now)
            return self.core.hooks.trailing_may_fetch(self.core, thread, now)
        return True

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
        threads = self.core.threads
        candidates = [t for t in threads if self._fetchable(t, now)]
        if not candidates:
            return None
        if self.core.trailing_priority:
            trailing = [t for t in candidates if t.is_trailing]
            if trailing:
                candidates = trailing
        self._rotation += 1
        if len(candidates) == 1:
            return candidates[0]
        return min(candidates,
                   key=lambda t: (self._chooser_load(t),
                                  (t.tid + self._rotation) % len(threads)))

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
        pc = thread.fetch_pc
        for _ in range(self.config.fetch_chunks_per_cycle):
            if thread.fetch_halted or thread.rmb_load() >= thread.rmb.capacity:
                break
            avail = self.core.hierarchy.fetch(
                self.core.core_id, thread.code_addr(pc), now)
            if avail > now:
                thread.fetch_stalled_until = avail
                thread.stats.fetch_icache_stall_cycles += avail - now
                break
            proposal = self.core.line_predictor.predict(pc)
            thread.stats.line_predictions += 1
            chunk = self._build_chunk(thread, pc, now)
            self._push_chunk(thread, chunk, now)
            pc = chunk.next_pc
            if not self.core.line_predictor.verify(
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
        for _ in range(self.config.chunk_size):
            uop = Uop(core.next_seq(), tid, cur, instructions[cur], now)
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
        return FetchChunk(thread=thread.tid, start_pc=pc % wrap, uops=uops,
                          next_pc=next_pc, fetch_cycle=now)

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
            if thread.rmb_load() >= thread.rmb.capacity:
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
            self._push_chunk(thread, chunk, now)

    def _build_trailing_chunk(self, thread: HwThread, start_pc: int,
                              pcs: List[int], next_pc: int,
                              half_hints: Optional[List[Optional[int]]],
                              now: int) -> FetchChunk:
        core = self.core
        instructions = thread.program.instructions
        wrap = thread.program_length
        tid = thread.tid
        uops: List[Uop] = []
        for position, pc in enumerate(pcs):
            uop = Uop(core.next_seq(), tid, pc, instructions[pc], now, True)
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
        return FetchChunk(thread=thread.tid, start_pc=start_pc, uops=uops,
                          next_pc=next_pc, fetch_cycle=now,
                          half_hints=half_hints)

    # -- shared ---------------------------------------------------------------
    def _push_chunk(self, thread: HwThread, chunk: FetchChunk, now: int) -> None:
        thread.rmb_inflight += 1
        self.core.fetch_pipe.push((thread.tid, chunk), now)
