"""Property-based tests for the sliding (m,k) machinery.

Cross-checks the O(n) online/windowed implementations against an O(n*k)
brute force over arbitrary miss sequences, plus the parameter-validation
contract added with the fault-injection work.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.weakly_hard import (
    MKAutomaton,
    MKConstraint,
    max_window_misses,
)

miss_sequences = st.lists(st.booleans(), max_size=60)
window_sizes = st.integers(min_value=1, max_value=12)


def brute_force_max_window(misses, k):
    best = 0
    for i in range(len(misses)):
        window = misses[max(0, i - k + 1): i + 1]
        best = max(best, sum(window))
    return best


class TestSlidingWindowProperties:
    @given(misses=miss_sequences, k=window_sizes)
    @settings(max_examples=200, deadline=None)
    def test_max_window_misses_matches_brute_force(self, misses, k):
        assert max_window_misses(misses, k) == brute_force_max_window(misses, k)

    @given(misses=miss_sequences, k=window_sizes, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_online_window_agrees_with_offline(self, misses, k, data):
        m = data.draw(st.integers(min_value=0, max_value=k))
        window = MKAutomaton(MKConstraint(m, k))
        step_verdicts = [window.record(miss) for miss in misses]
        # Each step's verdict is the brute-force windowed check there.
        for i, verdict in enumerate(step_verdicts):
            local = sum(misses[max(0, i - k + 1): i + 1])
            assert verdict == (local > m), f"step {i}"
        # Aggregates agree with the offline functions.
        assert window.violated == (max_window_misses(misses, k) > m)
        assert window.total_misses == sum(misses)
        assert window.misses_in_window == sum(misses[-k:])

    @given(misses=miss_sequences, k=window_sizes)
    @settings(max_examples=100, deadline=None)
    def test_hard_constraint_violated_iff_any_miss(self, misses, k):
        window = MKAutomaton(MKConstraint(0, k))
        for miss in misses:
            window.record(miss)
        assert window.violated == any(misses)


class TestParameterValidation:
    @given(m=st.integers(-5, 20), k=st.integers(-5, 20))
    @settings(max_examples=200, deadline=None)
    def test_mk_constraint_accepts_exactly_valid_pairs(self, m, k):
        valid = k >= 1 and 0 <= m <= k
        if valid:
            constraint = MKConstraint(m, k)
            assert (constraint.m, constraint.k) == (m, k)
        else:
            with pytest.raises(ValueError):
                MKConstraint(m, k)

    def test_non_integer_parameters_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            MKConstraint(1.5, 5)
        with pytest.raises(ValueError, match="integers"):
            MKConstraint(1, "5")

    def test_miss_window_coerces_tuples(self):
        window = MKAutomaton((1, 5))
        assert window.constraint == MKConstraint(1, 5)
        with pytest.raises(ValueError):
            MKAutomaton((3, 2))
        with pytest.raises(ValueError):
            MKAutomaton("not a constraint")

    def test_function_level_validation(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            max_window_misses([True], 0)
