"""Branch prediction: an LTAGE-style predictor, BTB, and return address stack.

Table III specifies an LTAGE predictor with a 4096-entry BTB and a 64-entry
RAS.  The implementation here is a compact TAGE: a bimodal base table plus
tagged components with geometric history lengths and the standard
provider/alternate selection and allocation-on-mispredict policy — enough
fidelity that squash behaviour (Figure 8 bottom) tracks branch-pattern
difficulty the way a real front end's would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..memory.cache import SetAssocCache

#: Geometric history lengths of the tagged components.
_HISTORIES = (4, 8, 16, 32)
_TAG_BITS = 9
_TABLE_BITS = 10  # 1024 entries per tagged component
# Hoisted masks: ``_refold`` runs once per resolved branch.
_HISTORY_MASKS = tuple((1 << h) - 1 for h in _HISTORIES)
_TABLE_MASK = (1 << _TABLE_BITS) - 1
_TAG_MASK = (1 << _TAG_BITS) - 1


@dataclass
class BranchStats:
    cond_predictions: int = 0
    cond_mispredictions: int = 0
    indirect_predictions: int = 0
    indirect_mispredictions: int = 0
    ras_overflows: int = 0

    @property
    def cond_accuracy(self) -> float:
        if not self.cond_predictions:
            return 1.0
        return 1.0 - self.cond_mispredictions / self.cond_predictions


class LTagePredictor:
    """TAGE-style conditional branch predictor.

    Each tagged component is three flat int lists (tag, signed counter,
    useful bits) indexed alike, not one object per entry: the tables
    stay a handful of GC-tracked lists however large they grow.
    """

    def __init__(self) -> None:
        self._bimodal = [0] * 4096  # 2-bit signed counters, >=0 taken
        entries = 1 << _TABLE_BITS
        self._tags = [[-1] * entries for _ in _HISTORIES]
        self._ctrs = [[0] * entries for _ in _HISTORIES]  # signed: >=0 taken
        self._useful = [[0] * entries for _ in _HISTORIES]
        self._history = 0
        # Folded-history cache, one (index, tag) fold per component;
        # refreshed whenever ``_history`` changes.
        self._folded_idx = [0] * len(_HISTORIES)
        self._folded_tag = [0] * len(_HISTORIES)
        self.stats = BranchStats()

    def _refold(self) -> None:
        """Recompute the folded-history cache after ``_history`` changed."""
        history = self._history
        folded_idx = self._folded_idx
        folded_tag = self._folded_tag
        for level, mask in enumerate(_HISTORY_MASKS):
            masked = history & mask
            folded_idx[level] = _fold(masked, _TABLE_BITS)
            folded_tag[level] = _fold(masked, _TAG_BITS)

    # -- prediction -------------------------------------------------------------

    def predict(self, pc: int) -> bool:
        level, index = self._find_provider(pc)
        if level >= 0:
            return self._ctrs[level][index] >= 0
        return self._bimodal[self._bimodal_index(pc)] >= 0

    def update(self, pc: int, taken: bool) -> bool:
        """Train on the outcome; returns whether the prediction was correct."""
        # One provider search serves both the prediction and the training
        # (``predict`` is read-only, so searching twice is pure overhead).
        level, index = self._find_provider(pc)
        if level >= 0:
            ctrs = self._ctrs[level]
            prediction = ctrs[index] >= 0
        else:
            prediction = self._bimodal[self._bimodal_index(pc)] >= 0
        correct = prediction == taken
        self.stats.cond_predictions += 1
        if not correct:
            self.stats.cond_mispredictions += 1
        if level >= 0:
            ctrs[index] = _nudge(ctrs[index], taken, limit=3)
            if correct:
                useful = self._useful[level]
                useful[index] = min(useful[index] + 1, 3)
        else:
            index = self._bimodal_index(pc)
            self._bimodal[index] = _nudge(self._bimodal[index], taken, limit=1)
        if not correct:
            self._allocate(pc, taken, level)
        self._history = ((self._history << 1) | int(taken)) & ((1 << 64) - 1)
        self._refold()
        return correct

    # -- internals -----------------------------------------------------------------

    def _find_provider(self, pc: int) -> Tuple[int, int]:
        """``(level, index)`` of the longest-history tagged component
        hitting on ``pc``; ``(-1, -1)`` when none does.

        Uses the per-level folded-history cache (maintained by
        :meth:`update` when the history shifts) instead of re-folding the
        history for every level probed.
        """
        folded_idx = self._folded_idx
        folded_tag = self._folded_tag
        pc2 = pc >> 2
        tag_base = pc2 ^ (pc >> 12)
        tags = self._tags
        for level in range(len(_HISTORIES) - 1, -1, -1):
            index = (pc2 ^ folded_idx[level]) & _TABLE_MASK
            if tags[level][index] == (tag_base ^ folded_tag[level]) & _TAG_MASK:
                return level, index
        return -1, -1

    def _allocate(self, pc: int, taken: bool, provider_level: int) -> None:
        """On mispredict, claim an entry in a longer-history component.

        Runs before the history shifts, so the folded-history cache
        still holds this branch's index and tag folds.
        """
        pc2 = pc >> 2
        tag_base = pc2 ^ (pc >> 12)
        for level in range(provider_level + 1, len(_HISTORIES)):
            index = (pc2 ^ self._folded_idx[level]) & _TABLE_MASK
            useful = self._useful[level]
            if useful[index] == 0:
                self._tags[level][index] = \
                    (tag_base ^ self._folded_tag[level]) & _TAG_MASK
                self._ctrs[level][index] = 0 if taken else -1
                return
            useful[index] -= 1

    @staticmethod
    def _bimodal_index(pc: int) -> int:
        return (pc >> 2) % 4096


def _fold(value: int, bits: int) -> int:
    folded = 0
    while value:
        folded ^= value & ((1 << bits) - 1)
        value >>= bits
    return folded


def _nudge(counter: int, taken: bool, limit: int) -> int:
    if taken:
        return min(counter + 1, limit)
    return max(counter - 1, -limit - 1)


class ReturnAddressStack:
    """The 64-entry RAS; overflow wraps (oldest entry lost)."""

    def __init__(self, entries: int = 64) -> None:
        self.entries = entries
        self._stack: List[int] = []
        self.overflows = 0

    def push(self, address: int) -> None:
        if len(self._stack) >= self.entries:
            del self._stack[0]
            self.overflows += 1
        self._stack.append(address)

    def pop(self) -> int:
        """Predicted return target; 0 when empty (forced mispredict)."""
        if not self._stack:
            return 0
        return self._stack.pop()


class FrontEndPredictors:
    """Bundle: conditional predictor + BTB + RAS, as the fetch stage sees it."""

    def __init__(self, btb_entries: int = 4096, ras_entries: int = 64) -> None:
        self.cond = LTagePredictor()
        self.btb = SetAssocCache(btb_entries, 4, line_shift=0, name="btb")
        self.ras = ReturnAddressStack(ras_entries)
        self.stats = self.cond.stats

    def predict_conditional(self, pc: int) -> bool:
        return self.cond.predict(pc)

    def resolve_conditional(self, pc: int, taken: bool) -> bool:
        """Returns correct?"""
        return self.cond.update(pc, taken)

    def on_call(self, return_address: int) -> None:
        self.ras.push(return_address)

    def resolve_indirect(self, pc: int, actual_target: int,
                         is_return: bool) -> bool:
        """Predict an indirect jump target; returns correct?"""
        self.stats.indirect_predictions += 1
        if is_return:
            predicted = self.ras.pop()
        else:
            cached = self.btb.lookup(pc)
            predicted = cached if cached is not None else 0
        self.btb.access(pc, actual_target)
        self.btb.update(pc, actual_target)
        if predicted != actual_target:
            self.stats.indirect_mispredictions += 1
            return False
        return True
