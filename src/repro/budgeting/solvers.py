"""Solvers for the budgeting CSP.

``p = 0`` (every miss recovered): Eq. (7) degenerates and the problem
splits into independent single-variable problems -- each segment takes
the minimal deadline whose windowed misses stay within m
(:func:`solve_independent`, exact).

``p = 1`` (misses propagate): the constraints couple all segments; the
paper defers to "heuristic methods or integer linear programming".  We
provide both: :func:`solve_greedy_propagated` (descent heuristic, fast)
and :func:`solve_branch_and_bound` (exact minimal-sum search over the
candidate lattice with admissible pruning, practical for the paper-scale
chains of a handful of segments).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.budgeting.csp import BudgetingProblem
from repro.budgeting.windows import miss_series, window_miss_profile
from repro.core.weakly_hard import max_window_misses


@dataclass
class SolverResult:
    """Outcome of a budgeting solve."""

    schedulable: bool
    #: Total deadlines d per segment (chain order); empty if unschedulable.
    deadlines: List[int] = field(default_factory=list)
    #: Objective value sum(d).
    total: int = 0
    #: Human-readable diagnostics.
    reason: str = ""
    #: Search statistics (solver dependent).
    nodes_explored: int = 0


def minimal_deadline(
    extended_latencies: Sequence[int],
    k: int,
    m_allowed: int,
    upper: Optional[int] = None,
) -> Optional[int]:
    """Smallest d with at most *m_allowed* misses in any k-window.

    Misses are activations with ``l' > d``; the miss count is
    non-increasing in d, so binary search over the distinct latency
    values (plus 1, allowing everything to miss when m_allowed >= k)
    finds the exact minimum.  Returns None if even ``upper`` (or the
    trace maximum) cannot satisfy the constraint.
    """
    if not extended_latencies:
        raise ValueError("empty trace")
    candidates = sorted(set(extended_latencies))
    candidates.insert(0, 1)  # d in N: smallest positive deadline
    if upper is not None:
        candidates = [c for c in candidates if c <= upper]
        if not candidates or candidates[-1] != upper:
            candidates.append(upper)

    def ok(deadline: int) -> bool:
        return (
            max_window_misses(miss_series(extended_latencies, deadline), k)
            <= m_allowed
        )

    if not ok(candidates[-1]):
        return None
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def solve_independent(problem: BudgetingProblem) -> SolverResult:
    """Exact solver for p = 0: per-segment minimal deadlines.

    With perfect recovery, Eq. (5) reduces to ``max_n m_i(n) <= m`` per
    segment; each segment's minimal deadline is independent.  The
    assignment is schedulable iff the minimal sum fits B_e2e.
    """
    assert problem.chain.budget_seg is not None
    deadlines: List[int] = []
    for i, name in enumerate(problem.order):
        minimal = minimal_deadline(
            problem.extended[i],
            problem.k,
            problem.m,
            upper=problem.chain.budget_seg,
        )
        if minimal is None:
            return SolverResult(
                schedulable=False,
                reason=(
                    f"segment {name}: even d = B_seg = "
                    f"{problem.chain.budget_seg} violates ({problem.m},{problem.k})"
                ),
            )
        deadlines.append(minimal)
    total = sum(deadlines)
    if total > problem.chain.budget_e2e:
        return SolverResult(
            schedulable=False,
            deadlines=deadlines,
            total=total,
            reason=(
                f"minimal deadline sum {total} exceeds "
                f"B_e2e={problem.chain.budget_e2e}"
            ),
        )
    return SolverResult(schedulable=True, deadlines=deadlines, total=total)


def solve_greedy_propagated(problem: BudgetingProblem) -> SolverResult:
    """Descent heuristic for propagated misses (p = 1).

    Start from the most conservative assignment (per-segment maximum
    extended latency, clipped to B_seg) and greedily lower one segment's
    deadline to its next smaller candidate -- always picking the step
    with the largest budget gain that keeps Eq. (5) feasible -- until
    the sum fits B_e2e or no feasible step remains.
    """
    candidates = [problem.candidates(i) for i in range(len(problem.order))]
    indices = [len(c) - 1 for c in candidates]
    current = [candidates[i][indices[i]] for i in range(len(indices))]
    report = problem.check(current)
    # Filter Eq.5 feasibility at the conservative point.
    if any("Eq.5" in v for v in report.violated_constraints):
        return SolverResult(
            schedulable=False,
            reason="even maximal deadlines violate Eq. (5): "
            + "; ".join(report.violated_constraints),
        )
    nodes = 1
    while sum(current) > problem.chain.budget_e2e:
        best_step = None
        best_gain = 0
        for i in range(len(indices)):
            if indices[i] == 0:
                continue
            trial = list(current)
            trial[i] = candidates[i][indices[i] - 1]
            gain = current[i] - trial[i]
            if gain <= best_gain:
                continue
            trial_report = problem.check(trial)
            nodes += 1
            if not any("Eq.5" in v for v in trial_report.violated_constraints):
                best_step = i
                best_gain = gain
        if best_step is None:
            return SolverResult(
                schedulable=False,
                deadlines=current,
                total=sum(current),
                reason=(
                    f"greedy descent stuck at sum {sum(current)} > "
                    f"B_e2e={problem.chain.budget_e2e}"
                ),
                nodes_explored=nodes,
            )
        indices[best_step] -= 1
        current[best_step] = candidates[best_step][indices[best_step]]
    return SolverResult(
        schedulable=True,
        deadlines=current,
        total=sum(current),
        nodes_explored=nodes,
    )


def solve_branch_and_bound(
    problem: BudgetingProblem, max_nodes: int = 200_000
) -> SolverResult:
    """Exact minimal-sum search for arbitrary propagation factors.

    Depth-first over per-segment candidate deadlines (ascending), with
    two admissible prunes:

    - partial sum + sum of remaining per-segment independent minima
      already exceeds the best known total (or B_e2e);
    - the partial assignment's own windowed misses (a lower bound on
      the full Eq. 5 count for downstream segments) already exceed m.

    This is the "ILP" role of the paper made concrete; instances with a
    handful of segments and hundreds of trace points solve quickly.  A
    search cut by *max_nodes* after it found an assignment says so in
    ``reason``: the total may not be minimal.
    """
    n_segments = len(problem.order)
    candidates = [problem.candidates(i) for i in range(n_segments)]
    # Independent minima serve as admissible per-segment lower bounds.
    independent_min: List[int] = []
    for i in range(n_segments):
        minimal = minimal_deadline(
            problem.extended[i], problem.k, problem.m,
            upper=problem.chain.budget_seg,
        )
        if minimal is None:
            return SolverResult(
                schedulable=False,
                reason=f"segment {problem.order[i]} infeasible even alone",
            )
        independent_min.append(minimal)
    suffix_min = [0] * (n_segments + 1)
    for i in range(n_segments - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + independent_min[i]

    best_total = problem.chain.budget_e2e + 1
    best: Optional[List[int]] = None
    nodes = 0
    truncated = False

    # Pre-compute window profiles per (segment, candidate) lazily.
    profile_cache: dict = {}

    def profile(i: int, deadline: int):
        key = (i, deadline)
        if key not in profile_cache:
            profile_cache[key] = window_miss_profile(
                miss_series(problem.extended[i], deadline), problem.k
            )
        return profile_cache[key]

    n_windows = len(profile(0, candidates[0][0]))

    def dfs(i: int, partial: List[int], partial_sum: int, carried: List[int]):
        """carried[n]: propagated window misses of segments < i."""
        nonlocal best_total, best, nodes, truncated
        if nodes >= max_nodes:
            truncated = True
            return
        if i == n_segments:
            if partial_sum < best_total and problem.check(partial).feasible:
                best_total = partial_sum
                best = list(partial)
            return
        for deadline in candidates[i]:
            nodes += 1
            if partial_sum + deadline + suffix_min[i + 1] >= best_total:
                break  # candidates ascend; larger ones only get worse
            own = profile(i, deadline)
            # Eq. 5 for segment i: own + carried must stay within m.
            worst = max(
                own[n] + carried[n] for n in range(n_windows)
            )
            if worst > problem.m:
                continue
            if problem.propagation[i]:
                next_carried = [carried[n] + own[n] for n in range(n_windows)]
            else:
                next_carried = carried
            partial.append(deadline)
            dfs(i + 1, partial, partial_sum + deadline, next_carried)
            partial.pop()

    dfs(0, [], 0, [0] * n_windows)
    if best is None:
        return SolverResult(
            schedulable=False,
            reason=(
                "no assignment satisfies Eqs. (3)-(5)"
                + (" (node limit reached)" if truncated else "")
            ),
            nodes_explored=nodes,
        )
    return SolverResult(
        schedulable=True,
        deadlines=best,
        total=best_total,
        reason=(
            "node limit reached: the total may not be minimal"
            if truncated else ""
        ),
        nodes_explored=nodes,
    )
