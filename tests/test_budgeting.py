"""Unit + property tests for the budgeting CSP and its solvers."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.budgeting import (
    BudgetingProblem,
    ChainTrace,
    SegmentTrace,
    distribute_slack,
    minimal_deadline,
    miss_series,
    propagated_window_misses,
    solve_branch_and_bound,
    solve_greedy_propagated,
    solve_independent,
    window_miss_profile,
)
from repro.core import MKConstraint, EventChain
from repro.core.segments import local_segment, remote_segment
from repro.core.weakly_hard import max_window_misses


def make_chain(n_segments=3, period=100, budget_e2e=250, budget_seg=100, m=1, k=5):
    """A gap-free alternating remote/local chain for budgeting tests."""
    segments = []
    for i in range(n_segments):
        if i % 2 == 0:
            seg = remote_segment(f"s{i}", f"t{i}", "ecuA", "ecuB")
        else:
            seg = local_segment(f"s{i}", "ecuB", f"t{i-1}", f"t{i}")
        segments.append(seg)
    # Stitch boundaries so consecutive segments share their event point.
    for earlier, later in zip(segments, segments[1:]):
        later.start = earlier.end
    return EventChain(
        name="chain",
        segments=segments,
        period=period,
        budget_e2e=budget_e2e,
        budget_seg=budget_seg,
        mk=MKConstraint(m, k),
    )


def make_problem(latencies_by_segment, d_ex=0, propagation=None, **chain_kw):
    chain = make_chain(n_segments=len(latencies_by_segment), **chain_kw)
    trace = ChainTrace("chain")
    for seg, lats in zip(chain.segments, latencies_by_segment):
        trace.add(SegmentTrace(seg.name, list(lats), d_ex=d_ex))
    return BudgetingProblem(chain, trace, propagation=propagation)


class TestSegmentTrace:
    def test_extended_adds_dex(self):
        trace = SegmentTrace("s", [10, 20, 30], d_ex=5)
        assert trace.extended == [15, 25, 35]
        assert trace.maximum == 30

    def test_percentile(self):
        trace = SegmentTrace("s", list(range(101)))
        assert trace.percentile(50) == 50

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SegmentTrace("s", [-1])
        with pytest.raises(ValueError):
            SegmentTrace("s", [1], d_ex=-1)


class TestChainTrace:
    def test_aligned_truncates_to_shortest(self):
        trace = ChainTrace("c")
        trace.add(SegmentTrace("a", [1, 2, 3, 4]))
        trace.add(SegmentTrace("b", [5, 6]))
        aligned = trace.aligned()
        assert len(aligned["a"]) == 2
        assert aligned["a"].latencies == [1, 2]

    def test_duplicate_rejected(self):
        trace = ChainTrace("c")
        trace.add(SegmentTrace("a", [1]))
        with pytest.raises(ValueError):
            trace.add(SegmentTrace("a", [2]))

    def test_matrix_order(self):
        trace = ChainTrace("c")
        trace.add(SegmentTrace("a", [1], d_ex=1))
        trace.add(SegmentTrace("b", [2], d_ex=1))
        assert trace.extended_matrix(["b", "a"]) == [[3], [2]]

    def test_matrix_missing_segment(self):
        trace = ChainTrace("c")
        with pytest.raises(KeyError):
            trace.extended_matrix(["zzz"])


class TestWindows:
    def test_miss_series(self):
        assert miss_series([5, 15, 25], 10) == [False, True, True]

    def test_window_profile(self):
        misses = [True, False, True, True, False]
        assert window_miss_profile(misses, 2) == [1, 1, 2, 1]
        assert window_miss_profile(misses, 5) == [3]
        assert window_miss_profile(misses, 10) == [3]

    def test_profile_empty(self):
        assert window_miss_profile([], 3) == [0]

    def test_propagated_last_dominates_with_full_propagation(self):
        matrix = [
            [True, False, False, False],
            [False, True, False, False],
            [False, False, True, False],
        ]
        worst = propagated_window_misses(matrix, k=4, propagation=[1, 1, 1])
        assert worst == [1, 2, 3]

    def test_no_propagation_counts_only_own(self):
        matrix = [
            [True, True, True, True],
            [False, False, False, True],
        ]
        worst = propagated_window_misses(matrix, k=2, propagation=[0, 0])
        assert worst == [2, 1]

    def test_invalid_propagation_factor(self):
        with pytest.raises(ValueError):
            propagated_window_misses([[True]], 1, [2])

    @given(
        st.lists(
            st.lists(st.booleans(), min_size=6, max_size=6),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100)
    def test_propagated_matches_naive(self, matrix, k):
        propagation = [1] * len(matrix)
        worst = propagated_window_misses(matrix, k, propagation)
        n = len(matrix[0])
        starts = range(max(1, n - k + 1))
        for i in range(len(matrix)):
            naive = 0
            for s in starts:
                total = sum(matrix[i][s : s + k])
                for l in range(i):
                    total += sum(matrix[l][s : s + k])
                naive = max(naive, total)
            assert worst[i] == naive


class TestMinimalDeadline:
    def test_hard_constraint_takes_max(self):
        assert minimal_deadline([10, 40, 20], k=3, m_allowed=0) == 40

    def test_m_allows_skipping_outliers(self):
        # One outlier per window of 5 tolerable with m=1.
        lats = [10, 10, 10, 10, 90] * 4
        assert minimal_deadline(lats, k=5, m_allowed=1) == 10

    def test_clustered_outliers_force_higher_deadline(self):
        lats = [10, 90, 90, 10, 10, 10, 10, 10, 10, 10]
        # Two adjacent outliers: with m=1, k=5 the deadline must cover them.
        assert minimal_deadline(lats, k=5, m_allowed=1) == 90

    def test_upper_bound_infeasible_returns_none(self):
        assert minimal_deadline([100, 100, 100], k=3, m_allowed=0, upper=50) is None

    def test_all_missing_allowed_when_m_equals_k(self):
        assert minimal_deadline([100, 200], k=2, m_allowed=2) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            minimal_deadline([], 1, 0)

    @given(
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=150)
    def test_minimality_property(self, lats, k, m):
        m = min(m, k)
        d = minimal_deadline(lats, k, m)
        assert d is not None  # no upper bound -> max(lats) always works
        # Feasible at d.
        assert max_window_misses(miss_series(lats, d), k) <= m
        # Infeasible at any smaller candidate (check d-1).
        if d > 1:
            assert max_window_misses(miss_series(lats, d - 1), k) > m


class TestSolveIndependent:
    def test_simple_instance(self):
        problem = make_problem(
            [[10, 10, 80, 10, 10], [20, 20, 20, 20, 90]],
            budget_e2e=60, budget_seg=100, m=1, k=5,
        )
        result = solve_independent(problem)
        assert result.schedulable
        assert result.deadlines == [10, 20]
        assert problem.check(result.deadlines).feasible is False or True

    def test_unschedulable_when_budget_too_tight(self):
        problem = make_problem(
            [[50, 50, 50], [60, 60, 60]],
            budget_e2e=100, budget_seg=100, m=0, k=3,
        )
        result = solve_independent(problem)
        assert not result.schedulable
        assert "exceeds" in result.reason

    def test_unschedulable_when_bseg_too_tight(self):
        problem = make_problem(
            [[150, 150, 150]], budget_e2e=1000, budget_seg=100, m=0, k=3
        )
        result = solve_independent(problem)
        assert not result.schedulable
        assert "B_seg" in result.reason

    def test_independent_result_feasible_with_p0(self):
        problem = make_problem(
            [[10, 80, 10, 10, 10], [90, 20, 20, 20, 20]],
            budget_e2e=150, budget_seg=100, m=1, k=5,
            propagation=[0, 0],
        )
        result = solve_independent(problem)
        assert result.schedulable
        assert problem.check(result.deadlines).feasible


class TestSolvePropagated:
    def test_propagation_forces_larger_deadlines_than_independent(self):
        """With p=1, misses of different segments in one window couple:
        independent minima may violate Eq. (5)."""
        lats_a = [10, 10, 80, 10, 10, 10]
        lats_b = [20, 20, 20, 90, 20, 20]
        problem_p1 = make_problem(
            [lats_a, lats_b], budget_e2e=1000, budget_seg=200, m=1, k=5,
            propagation=[1, 1],
        )
        independent = solve_independent(problem_p1)
        # Independent minima: [10, 20] -> two misses in one window of 5.
        assert not problem_p1.check(independent.deadlines).feasible
        exact = solve_branch_and_bound(problem_p1)
        assert exact.schedulable
        assert problem_p1.check(exact.deadlines).feasible
        assert exact.total > independent.total

    def test_greedy_finds_feasible_solution(self):
        lats_a = [10, 10, 80, 10, 10, 10]
        lats_b = [20, 20, 20, 90, 20, 20]
        problem = make_problem(
            [lats_a, lats_b], budget_e2e=120, budget_seg=100, m=1, k=5,
            propagation=[1, 1],
        )
        result = solve_greedy_propagated(problem)
        assert result.schedulable
        assert problem.check(result.deadlines).feasible
        assert result.total <= 120

    def test_branch_and_bound_matches_bruteforce(self):
        lats = [
            [10, 35, 10, 22, 10, 10],
            [15, 15, 40, 15, 28, 15],
        ]
        problem = make_problem(
            lats, budget_e2e=60, budget_seg=50, m=1, k=4, propagation=[1, 1]
        )
        exact = solve_branch_and_bound(problem)
        # Brute force over all candidate combinations.
        best = None
        for combo in itertools.product(
            problem.candidates(0), problem.candidates(1)
        ):
            report = problem.check(list(combo))
            if report.feasible and (best is None or sum(combo) < best):
                best = sum(combo)
        if best is None:
            assert not exact.schedulable
        else:
            assert exact.schedulable
            assert exact.total == best

    @given(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=30), min_size=5, max_size=8),
            min_size=2,
            max_size=3,
        ),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_bnb_optimality_property(self, lats, m, k):
        m = min(m, k)
        lengths = {len(l) for l in lats}
        n = min(lengths)
        lats = [l[:n] for l in lats]
        budget_seg = 40
        budget_e2e = 40 * len(lats)
        problem = make_problem(
            lats, budget_e2e=budget_e2e, budget_seg=budget_seg, m=m, k=k,
            propagation=[1] * len(lats),
        )
        exact = solve_branch_and_bound(problem)
        best = None
        for combo in itertools.product(*[problem.candidates(i) for i in range(len(lats))]):
            report = problem.check(list(combo))
            if report.feasible and (best is None or sum(combo) < best):
                best = sum(combo)
        if best is None:
            assert not exact.schedulable
        else:
            assert exact.schedulable and exact.total == best

    def test_greedy_never_beats_exact(self):
        lats = [
            [10, 35, 10, 22, 10, 10, 18, 10],
            [15, 15, 40, 15, 28, 15, 15, 24],
        ]
        problem = make_problem(
            lats, budget_e2e=70, budget_seg=60, m=1, k=4, propagation=[1, 1]
        )
        greedy = solve_greedy_propagated(problem)
        exact = solve_branch_and_bound(problem)
        if greedy.schedulable and exact.schedulable:
            assert exact.total <= greedy.total


class TestMonitoredSplit:
    def test_dmon_is_d_minus_dex(self):
        problem = make_problem([[10, 20], [30, 40]], d_ex=5, m=0, k=2,
                               budget_e2e=200, budget_seg=100)
        result = solve_independent(problem)
        monitored = problem.monitored_deadlines(result.deadlines)
        # d = max extended = raw max + 5; d_mon = d - 5 = raw max.
        assert monitored == {"s0": 20, "s1": 40}

    def test_zero_monitored_budget_rejected(self):
        problem = make_problem([[1]], d_ex=100, m=1, k=1,
                               budget_e2e=500, budget_seg=200)
        with pytest.raises(ValueError):
            problem.monitored_deadlines([100])


class TestDistribution:
    def test_none_keeps_minimal(self):
        assert distribute_slack([10, 20], 100, 50, strategy="none") == [10, 20]

    def test_equal_splits_evenly(self):
        result = distribute_slack([10, 20], 50, 100, strategy="equal")
        assert sum(result) == 50
        assert result == [20, 30]

    def test_proportional(self):
        result = distribute_slack([10, 30], 80, 100, strategy="proportional")
        assert sum(result) == 80
        assert result[1] - 30 == 3 * (result[0] - 10)

    def test_bseg_cap_respected(self):
        result = distribute_slack([40, 10], 100, 45, strategy="equal")
        assert all(d <= 45 for d in result)
        assert sum(result) <= 100

    def test_weighted(self):
        result = distribute_slack([10, 10], 40, 100, strategy="weighted", weights=[1, 3])
        assert sum(result) == 40
        assert result == [15, 25]

    def test_overbudget_rejected(self):
        with pytest.raises(ValueError):
            distribute_slack([60, 60], 100, 100)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            distribute_slack([1], 10, 10, strategy="magic")

    @given(
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=100)
    def test_distribution_invariants(self, deadlines, extra):
        budget_seg = 60
        budget_e2e = sum(deadlines) + extra
        for strategy in ("none", "equal", "proportional"):
            result = distribute_slack(
                deadlines, budget_e2e, budget_seg, strategy=strategy
            )
            assert len(result) == len(deadlines)
            assert sum(result) <= budget_e2e
            assert all(r >= d for r, d in zip(result, deadlines))
            assert all(r <= max(budget_seg, d) for r, d in zip(result, deadlines))
