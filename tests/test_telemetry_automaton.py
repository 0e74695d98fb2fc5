"""Equivalence of the bit-packed (m,k) automaton with the reference.

The O(1)-memory bit-packed :class:`repro.core.weakly_hard.MKAutomaton`
is the only online (m,k) window under ``src/``; the deque of the last k
outcomes it replaced is the oracle ``tests/_reference/miss_window.py``.
The replacement is only licensed by record-for-record equivalence,
proven here over random verdict streams.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weakly_hard import MKAutomaton, MKConstraint

from _reference.miss_window import MissWindow

miss_sequences = st.lists(st.booleans(), max_size=80)


@st.composite
def mk_pairs(draw):
    k = draw(st.integers(min_value=1, max_value=16))
    m = draw(st.integers(min_value=0, max_value=k))
    return m, k


class TestEquivalenceWithMissWindow:
    @given(mk=mk_pairs(), misses=miss_sequences)
    @settings(max_examples=300, deadline=None)
    def test_record_for_record(self, mk, misses):
        reference = MissWindow(MKConstraint(*mk))
        automaton = MKAutomaton(mk)
        for i, miss in enumerate(misses):
            assert automaton.record(miss) == reference.record(miss), f"step {i}"
        assert automaton.violations == reference.violations
        assert automaton.total == reference.total
        assert automaton.total_misses == reference.total_misses
        assert automaton.misses_in_window == reference.misses_in_window
        assert automaton.violated == reference.violated

    @given(mk=mk_pairs(), misses=miss_sequences)
    @settings(max_examples=200, deadline=None)
    def test_window_bits_match_reference_window(self, mk, misses):
        reference = MissWindow(MKConstraint(*mk))
        automaton = MKAutomaton(mk)
        for miss in misses:
            reference.record(miss)
            automaton.record(miss)
        assert automaton.window_bits() == list(reference._window)

    @given(mk=mk_pairs(), misses=miss_sequences)
    @settings(max_examples=200, deadline=None)
    def test_snapshot_restore_continues_identically(self, mk, misses):
        cut = len(misses) // 2
        automaton = MKAutomaton(mk)
        for miss in misses[:cut]:
            automaton.record(miss)
        restored = MKAutomaton.restore(automaton.snapshot())
        for miss in misses[cut:]:
            assert restored.record(miss) == automaton.record(miss)
        assert restored.snapshot() == automaton.snapshot()


class TestMargin:
    def test_margin_counts_down_and_recovers(self):
        automaton = MKAutomaton((2, 4))
        assert automaton.margin == 2
        automaton.record(True)
        assert automaton.margin == 1
        automaton.record(True)
        assert automaton.margin == 0
        # The misses age out of the k=4 window.
        for _ in range(4):
            automaton.record(False)
        assert automaton.margin == 2

    def test_violation_positions_counted_like_reference(self):
        # (1,3): every position whose window holds >1 misses violates.
        automaton = MKAutomaton((1, 3))
        verdicts = [automaton.record(m) for m in [True, True, True, False]]
        assert verdicts == [False, True, True, True]
        assert automaton.violations == 3
        assert automaton.last_violation == 3


class TestValidation:
    def test_rejects_non_constraint(self):
        with pytest.raises(ValueError):
            MKAutomaton("not a constraint")

    def test_rejects_invalid_mk(self):
        with pytest.raises(ValueError):
            MKAutomaton((5, 2))  # m > k
