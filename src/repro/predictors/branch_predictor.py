"""Control-flow predictors: gshare, jump target table, return stack.

Table 1 gives the base machine a 208 Kbit branch predictor.  We model a
gshare predictor with 64K 2-bit counters (128 Kbit) plus a 4K-entry
jump-target table and per-thread 32-entry return address stacks —
within the same storage budget.  History registers are per hardware
thread; the counter and target tables are shared (and therefore alias
across threads, as on the real machine).
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class BranchPredictorStats:
    conditional_predictions: int = 0
    conditional_mispredictions: int = 0
    indirect_predictions: int = 0
    indirect_mispredictions: int = 0
    ras_predictions: int = 0
    ras_mispredictions: int = 0

    @property
    def conditional_misprediction_rate(self) -> float:
        total = self.conditional_predictions
        return self.conditional_mispredictions / total if total else 0.0


class GshareBranchPredictor:
    """Tournament conditional predictor (bimodal + gshare + chooser).

    The base machine's 208-Kbit budget (Table 1) is spent EV8-hybrid
    style: 64K gshare 2-bit counters (128 Kbit), 16K per-PC bimodal
    counters (32 Kbit), and a 16K-entry chooser (32 Kbit), leaving room
    for the jump-target table and return stacks.  The bimodal component
    nails strongly biased branches immediately; gshare captures
    correlated/loop behaviour; the chooser arbitrates per PC.
    """

    def __init__(self, counter_bits: int = 16, history_bits: int = 12,
                 num_threads: int = 4) -> None:
        self.size = 1 << counter_bits
        self.bimodal_size = self.size // 4
        self.history_mask = (1 << history_bits) - 1
        self._gshare: Dict[int, int] = {}    # default weakly taken (2)
        self._bimodal: Dict[int, int] = {}   # default weakly taken (2)
        self._chooser: Dict[int, int] = {}   # >=2 favours gshare
        self._history: List[int] = [0] * num_threads
        self.stats = BranchPredictorStats()

    def _gshare_index(self, thread: int, pc: int) -> int:
        return (pc ^ self._history[thread]) % self.size

    def _pc_index(self, pc: int) -> int:
        return pc % self.bimodal_size

    def predict_conditional(self, thread: int, pc: int) -> bool:
        self.stats.conditional_predictions += 1
        gshare = self._gshare.get(self._gshare_index(thread, pc), 2)
        bimodal = self._bimodal.get(self._pc_index(pc), 2)
        chooser = self._chooser.get(self._pc_index(pc), 1)
        counter = gshare if chooser >= 2 else bimodal
        return counter >= 2

    def update_conditional(self, thread: int, pc: int, taken: bool,
                           predicted: Optional[bool] = None) -> None:
        g_index = self._gshare_index(thread, pc)
        p_index = self._pc_index(pc)
        gshare = self._gshare.get(g_index, 2)
        bimodal = self._bimodal.get(p_index, 2)
        gshare_right = (gshare >= 2) == taken
        bimodal_right = (bimodal >= 2) == taken
        if gshare_right != bimodal_right:
            chooser = self._chooser.get(p_index, 1)
            chooser = min(chooser + 1, 3) if gshare_right else max(chooser - 1, 0)
            self._chooser[p_index] = chooser
        self._gshare[g_index] = (min(gshare + 1, 3) if taken
                                 else max(gshare - 1, 0))
        self._bimodal[p_index] = (min(bimodal + 1, 3) if taken
                                  else max(bimodal - 1, 0))
        self._history[thread] = (
            (self._history[thread] << 1) | int(taken)) & self.history_mask
        if predicted is not None and predicted != taken:
            self.stats.conditional_mispredictions += 1

    def train(self, threads: Sequence[int],
              branches: Iterable[Tuple[int, bool]]) -> None:
        """Predict, then update with its outcome, each conditional
        branch (pc, taken) in turn, once for each of ``threads`` in order:
        a warm-up's training in one call.  Threads that share these
        tables stay interleaved branch by branch, as when they run."""
        predict, update = self.predict_conditional, self.update_conditional
        for pc, taken in branches:
            for thread in threads:
                update(thread, pc, taken, predict(thread, pc))

    def snapshot_history(self, thread: int) -> int:
        return self._history[thread]

    def restore_history(self, thread: int, history: int) -> None:
        self._history[thread] = history


class JumpTargetPredictor:
    """PC-indexed last-target table for indirect jumps."""

    def __init__(self, entries: int = 4096) -> None:
        self.entries = entries
        self._table: Dict[int, int] = {}
        self.stats = BranchPredictorStats()

    def predict(self, pc: int) -> Optional[int]:
        self.stats.indirect_predictions += 1
        return self._table.get(pc % self.entries)

    def update(self, pc: int, target: int,
               predicted: Optional[int] = None) -> None:
        self._table[pc % self.entries] = target
        if predicted is None or predicted != target:
            self.stats.indirect_mispredictions += 1


class ReturnAddressStack:
    """Per-thread bounded return stack; overflows discard the oldest."""

    def __init__(self, depth: int = 32) -> None:
        self.depth = depth
        self._stack: List[int] = []
        self.stats = BranchPredictorStats()

    def push(self, return_pc: int) -> None:
        if len(self._stack) >= self.depth:
            self._stack.pop(0)
        self._stack.append(return_pc)

    def predict_pop(self) -> Optional[int]:
        self.stats.ras_predictions += 1
        return self._stack.pop() if self._stack else None

    def record_outcome(self, predicted: Optional[int], actual: int) -> None:
        if predicted is None or predicted != actual:
            self.stats.ras_mispredictions += 1

    def clear(self) -> None:
        self._stack.clear()
