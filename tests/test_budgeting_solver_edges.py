"""Edge-case and robustness tests for the budgeting solvers."""

import pytest

from repro.budgeting import (
    BudgetingProblem,
    ChainTrace,
    SegmentTrace,
    solve_branch_and_bound,
    solve_greedy_propagated,
    solve_independent,
)
from repro.core import EventChain, MKConstraint
from repro.core.segments import local_segment, remote_segment


def build_problem(latencies, budget_e2e, budget_seg, m, k, propagation=None, d_ex=0):
    segments = []
    for i in range(len(latencies)):
        if i % 2 == 0:
            seg = remote_segment(f"s{i}", f"t{i}", "A", "B")
        else:
            seg = local_segment(f"s{i}", "B", f"t{i-1}", f"t{i}")
        segments.append(seg)
    for a, b in zip(segments, segments[1:]):
        b.start = a.end
    chain = EventChain(
        name="edge", segments=segments, period=10_000,
        budget_e2e=budget_e2e, budget_seg=budget_seg, mk=MKConstraint(m, k),
    )
    trace = ChainTrace("edge")
    for seg, series in zip(segments, latencies):
        trace.add(SegmentTrace(seg.name, list(series), d_ex=d_ex))
    return BudgetingProblem(chain, trace, propagation=propagation)


class TestProblemValidation:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            build_problem([[]], 100, 100, 0, 1)

    def test_wrong_propagation_length(self):
        with pytest.raises(ValueError):
            build_problem([[1], [2]], 100, 100, 0, 1, propagation=[1])

    def test_wrong_deadline_count_in_check(self):
        problem = build_problem([[1], [2]], 100, 100, 0, 1)
        with pytest.raises(ValueError):
            problem.check([10])

    def test_check_reports_each_violation(self):
        problem = build_problem([[50, 50], [60, 60]], budget_e2e=80,
                                budget_seg=55, m=0, k=2)
        report = problem.check([60, 70])
        assert not report.feasible
        kinds = "".join(report.violated_constraints)
        assert "Eq.3" in kinds  # sum 130 > 80
        assert "Eq.4" in kinds  # both above B_seg

    def test_nonpositive_deadline_flagged(self):
        problem = build_problem([[5]], 100, 100, 1, 1)
        report = problem.check([0])
        assert any("Eq.2" in v for v in report.violated_constraints)

    def test_candidates_clipped_to_bseg(self):
        problem = build_problem([[10, 200, 40]], budget_e2e=500,
                                budget_seg=100, m=1, k=2)
        candidates = problem.candidates(0)
        assert candidates[-1] == 100  # B_seg replaces out-of-range values
        assert all(c <= 100 for c in candidates)


class TestGreedyEdges:
    def test_greedy_reports_unschedulable_budget(self):
        problem = build_problem(
            [[100, 100, 100], [100, 100, 100]],
            budget_e2e=150, budget_seg=120, m=0, k=3,
            propagation=[1, 1],
        )
        result = solve_greedy_propagated(problem)
        assert not result.schedulable
        assert "stuck" in result.reason or "violate" in result.reason

    def test_greedy_handles_single_segment(self):
        problem = build_problem([[10, 20, 30]], budget_e2e=100,
                                budget_seg=100, m=0, k=3, propagation=[1])
        result = solve_greedy_propagated(problem)
        assert result.schedulable
        assert result.deadlines == [30]


class TestBnbEdges:
    def test_node_limit_reported(self):
        # Many candidates + tight coupling: the full search takes 740
        # nodes (sum 2621).  Cut before it finds an assignment or after,
        # it reports the limit: a cut search proves neither that none
        # exists nor that its total is minimal.
        import numpy as np

        rng = np.random.default_rng(0)
        lats = [list(rng.integers(1, 1000, 40)) for _ in range(3)]
        problem = build_problem(
            lats, budget_e2e=3000, budget_seg=1500, m=2, k=5,
            propagation=[1, 1, 1],
        )
        none_yet = solve_branch_and_bound(problem, max_nodes=10)
        assert not none_yet.schedulable
        assert "node limit reached" in none_yet.reason
        found = solve_branch_and_bound(problem, max_nodes=200)
        assert found.schedulable
        assert found.reason == (
            "node limit reached: the total may not be minimal"
        )
        assert problem.check(found.deadlines).feasible
        full = solve_branch_and_bound(problem)
        assert (full.schedulable, full.total, full.reason) == (True, 2621, "")

    def test_m_equals_k_everything_may_miss(self):
        # p = 0: every miss is recovered, so with m = k both segments
        # may miss every activation and the minimal deadline is 1 each.
        problem = build_problem(
            [[100, 100], [100, 100]], budget_e2e=10, budget_seg=100,
            m=2, k=2, propagation=[0, 0],
        )
        result = solve_branch_and_bound(problem)
        assert result.schedulable
        assert result.total == 2  # d = 1 per segment

    def test_propagation_double_counts_per_eq7(self):
        """Faithful to the paper's conservative Eq. (7): when both
        segments miss the same activations with p = 1, the downstream
        window counts both, so m = k is still infeasible."""
        problem = build_problem(
            [[100, 100], [100, 100]], budget_e2e=10, budget_seg=100,
            m=2, k=2, propagation=[1, 1],
        )
        result = solve_branch_and_bound(problem)
        assert not result.schedulable

    def test_dex_shifts_deadlines(self):
        p0 = build_problem([[10, 20]], 100, 100, 0, 2, d_ex=0)
        p5 = build_problem([[10, 20]], 100, 100, 0, 2, d_ex=5)
        r0 = solve_independent(p0)
        r5 = solve_independent(p5)
        assert r5.deadlines[0] == r0.deadlines[0] + 5
        assert p5.monitored_deadlines(r5.deadlines)["s0"] == r0.deadlines[0]
