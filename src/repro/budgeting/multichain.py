"""Joint budgeting of multiple chains with shared segments.

The paper's use case has four chains sharing all but their first two
segments (its Fig. 2).  Budgeting each chain in isolation can assign
*different* deadlines to a shared segment; a deployment needs one
deadline per segment such that **every** chain's Eqs. (3)-(5) hold.

The joint problem remains a search over per-segment candidate
deadlines; :func:`solve_joint` searches the union of segments exactly,
cutting a branch as soon as one chain's Eq. (3) sum cannot fit or its
full check fails at its last segment.  It is also how a fork/join DAG is
budgeted: one problem per root->sink path chain
(:func:`repro.core.dag.path_chains`), each against its own sink's
``B_e2e``.  For the common case where the solutions do not conflict,
:func:`reconcile_independent` is a cheap first attempt: take the
per-chain solutions' maximum per shared segment and re-verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.budgeting.csp import BudgetingProblem
from repro.budgeting.solvers import SolverResult, minimal_deadline


@dataclass
class MultiChainResult:
    """Outcome of a joint multi-chain solve."""

    schedulable: bool
    #: One deadline per segment name (union over chains).
    deadlines: Dict[str, int] = field(default_factory=dict)
    total: int = 0
    reason: str = ""
    nodes_explored: int = 0


def _check_all(problems: Sequence[BudgetingProblem], deadlines: Dict[str, int]) -> bool:
    for problem in problems:
        assignment = [deadlines[name] for name in problem.order]
        if not problem.check(assignment).feasible:
            return False
    return True


def reconcile_independent(
    problems: Sequence[BudgetingProblem],
    solutions: Sequence[SolverResult],
) -> MultiChainResult:
    """Merge per-chain solutions by per-segment maximum and re-verify.

    Raising a deadline never adds misses, so the merged assignment
    satisfies every chain's Eq. (5); only the budget sums (Eq. 3) can
    break, which the re-verification catches.
    """
    merged: Dict[str, int] = {}
    for problem, solution in zip(problems, solutions):
        if not solution.schedulable:
            return MultiChainResult(
                schedulable=False,
                reason=f"chain {problem.chain.name} unschedulable alone: "
                f"{solution.reason}",
            )
        for name, deadline in zip(problem.order, solution.deadlines):
            merged[name] = max(merged.get(name, 0), deadline)
    if not _check_all(problems, merged):
        return MultiChainResult(
            schedulable=False,
            deadlines=merged,
            reason="per-chain maxima violate some chain's budget; "
            "use solve_joint",
        )
    return MultiChainResult(
        schedulable=True,
        deadlines=merged,
        total=sum(merged.values()),
    )


def solve_joint(
    problems: Sequence[BudgetingProblem],
    max_nodes: int = 500_000,
) -> MultiChainResult:
    """Exact joint search over the union of segments.

    Minimizes the sum of deadlines over all distinct segments subject to
    every chain's Eqs. (3)-(5).  Candidates per segment are the union of
    that segment's candidates across the chains it appears in.  Besides
    the bound on the best total, two prunes cut only subtrees without a
    feasible leaf:

    - **Eq. (3) per chain**: a chain's assigned deadlines plus the
      smallest candidates of its unassigned segments exceed its
      ``B_e2e`` (candidates ascend, so the loop stops there);
    - **early full check**: each chain's Eqs. (3)-(5) run at the depth
      that assigns its last segment, so every leaf has passed every
      chain's check.

    A search cut by *max_nodes* after it found an assignment says so in
    ``reason``: the total may not be minimal.
    """
    if not problems:
        raise ValueError("need at least one problem")
    # Union of segments, stable order: first appearance across chains.
    names: List[str] = []
    candidates: Dict[str, List[int]] = {}
    lower_bounds: Dict[str, int] = {}
    for problem in problems:
        for index, name in enumerate(problem.order):
            values = problem.candidates(index)
            if name not in candidates:
                names.append(name)
                candidates[name] = list(values)
            else:
                candidates[name] = sorted(set(candidates[name]) | set(values))
            minimal = minimal_deadline(
                problem.extended[index],
                problem.k,
                problem.m,
                upper=problem.chain.budget_seg,
            )
            if minimal is None:
                return MultiChainResult(
                    schedulable=False,
                    reason=f"segment {name} infeasible alone in chain "
                    f"{problem.chain.name}",
                )
            lower_bounds[name] = max(lower_bounds.get(name, 0), minimal)

    # Prune candidates below each segment's independent lower bound.
    for name in names:
        filtered = [c for c in candidates[name] if c >= lower_bounds[name]]
        candidates[name] = filtered or [lower_bounds[name]]

    depth = len(names)
    suffix_min = [0] * (depth + 1)
    for i in range(depth - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + candidates[names[i]][0]
    # Per depth: the chains through that segment, and the chains whose
    # last segment it is.  Per chain: the sum of its segments' smallest
    # candidates from each depth on, and its assigned deadline sum.
    position = {name: i for i, name in enumerate(names)}
    through: List[List[int]] = [[] for _ in names]
    completes: List[List[int]] = [[] for _ in names]
    rest_min: List[List[int]] = []
    for c, problem in enumerate(problems):
        mine = sorted(position[name] for name in problem.order)
        for i in mine:
            through[i].append(c)
        completes[mine[-1]].append(c)
        rest = [0] * (depth + 1)
        for i in range(depth - 1, -1, -1):
            rest[i] = rest[i + 1] + (
                candidates[names[i]][0] if c in through[i] else 0
            )
        rest_min.append(rest)
    budgets = [problem.chain.budget_e2e for problem in problems]
    chain_sums = [0] * len(problems)

    best_total: Optional[int] = None
    best: Optional[Dict[str, int]] = None
    nodes = 0
    truncated = False

    def dfs(i: int, partial: Dict[str, int], partial_sum: int) -> None:
        nonlocal best_total, best, nodes, truncated
        if nodes >= max_nodes:
            truncated = True
            return
        if best_total is not None and partial_sum + suffix_min[i] >= best_total:
            return
        if i == depth:
            best_total = partial_sum
            best = dict(partial)
            return
        name = names[i]
        for deadline in candidates[name]:
            nodes += 1
            if (
                best_total is not None
                and partial_sum + deadline + suffix_min[i + 1] >= best_total
            ):
                break
            if any(
                chain_sums[c] + deadline + rest_min[c][i + 1] > budgets[c]
                for c in through[i]
            ):
                break
            partial[name] = deadline
            if not all(
                problems[c].check(
                    [partial[n] for n in problems[c].order]
                ).feasible
                for c in completes[i]
            ):
                continue
            for c in through[i]:
                chain_sums[c] += deadline
            dfs(i + 1, partial, partial_sum + deadline)
            for c in through[i]:
                chain_sums[c] -= deadline
        partial.pop(name, None)

    dfs(0, {}, 0)
    if best is None:
        return MultiChainResult(
            schedulable=False,
            reason="no joint assignment satisfies every chain"
            + (" (node limit reached)" if truncated else ""),
            nodes_explored=nodes,
        )
    return MultiChainResult(
        schedulable=True,
        deadlines=best,
        total=best_total or 0,
        reason=(
            "node limit reached: the total may not be minimal"
            if truncated else ""
        ),
        nodes_explored=nodes,
    )
