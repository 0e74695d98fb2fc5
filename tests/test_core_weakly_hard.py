"""Unit + property tests for (m,k) constraints and miss windows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MKAutomaton, MKConstraint, max_window_misses

from _reference.miss_window import MissWindow


class TestMKConstraint:
    def test_valid_construction(self):
        mk = MKConstraint(2, 10)
        assert str(mk) == "(2,10)"
        assert not mk.hard

    def test_hard_constraint(self):
        assert MKConstraint(0, 1).hard

    @pytest.mark.parametrize("m,k", [(-1, 5), (6, 5), (0, 0)])
    def test_invalid_rejected(self, m, k):
        with pytest.raises(ValueError):
            MKConstraint(m, k)

    def test_satisfied_by(self):
        """A trace satisfies (m,k) iff no k-window holds more than m
        misses."""
        mk = MKConstraint(1, 3)
        trace = [False, True, False, False, True, False]
        assert max_window_misses(trace, mk.k) <= mk.m
        assert max_window_misses([True, True], mk.k) > mk.m


class TestMaxWindowMisses:
    def test_empty_trace(self):
        assert max_window_misses([], 5) == 0

    def test_all_hits(self):
        assert max_window_misses([False] * 10, 3) == 0

    def test_all_misses(self):
        assert max_window_misses([True] * 10, 3) == 3

    def test_clustered_misses(self):
        trace = [False, True, True, False, False, True, False]
        assert max_window_misses(trace, 3) == 2
        assert max_window_misses(trace, 2) == 2
        assert max_window_misses(trace, 1) == 1

    def test_window_larger_than_trace(self):
        assert max_window_misses([True, False, True], 10) == 2

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            max_window_misses([True], 0)

    @given(
        st.lists(st.booleans(), max_size=60),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=200)
    def test_matches_naive_oracle(self, trace, k):
        naive = 0
        for i in range(len(trace)):
            naive = max(naive, sum(trace[i : i + k]))
        assert max_window_misses(trace, k) == naive


class TestMissWindow:
    """The production online window (the bit-packed automaton)."""

    def test_no_violation_within_budget(self):
        window = MKAutomaton(MKConstraint(1, 3))
        assert window.record(True) is False
        assert window.record(False) is False
        assert window.record(False) is False
        assert window.record(True) is False  # window [F,F,T]: 1 miss
        assert not window.violated

    def test_violation_detected(self):
        window = MKAutomaton(MKConstraint(1, 3))
        oracle = MissWindow(MKConstraint(1, 3))
        window.record(True)
        oracle.record(True)
        assert window.record(True) is oracle.record(True) is True
        assert window.violated
        assert window.last_violation == 1
        assert oracle.violation_indices == [1]

    def test_window_slides(self):
        window = MKAutomaton(MKConstraint(0, 2))
        window.record(True)  # violation (1 > 0)
        window.record(False)
        window.record(False)  # miss slid out
        assert window.misses_in_window == 0

    def test_totals(self):
        window = MKAutomaton(MKConstraint(5, 10))
        for outcome in [True, False, True, False]:
            window.record(outcome)
        assert window.total == 4
        assert window.total_misses == 2

    @given(
        st.lists(st.booleans(), max_size=80),
        st.integers(min_value=1, max_value=15),
    )
    @settings(max_examples=200)
    def test_online_window_matches_offline(self, trace, k):
        m = k // 2
        window = MKAutomaton(MKConstraint(m, k))
        for outcome in trace:
            window.record(outcome)
        assert window.violated == (max_window_misses(trace, k) > m)
        assert window.total_misses == sum(trace)

    @given(st.lists(st.booleans(), min_size=1, max_size=80))
    @settings(max_examples=100)
    def test_window_miss_count_never_exceeds_k(self, trace):
        window = MKAutomaton(MKConstraint(2, 4))
        for outcome in trace:
            window.record(outcome)
            assert 0 <= window.misses_in_window <= 4
