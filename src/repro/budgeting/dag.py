"""Budgeting over DAG event chains: the CSP (Eqs. 2-7) per path.

A DAG instance generalizes the paper's constraints in the obvious way:

    find        d^s in N                for all segments s            (2')
    subject to  B_e2e(sink(p)) >= sum_{s in p} d^s   for every path p (3')
                B_seg >= d^s                                          (4')
                m_p >= max_n M_i(n)     for every segment i of p      (5')

i.e. Eq. (3) telescopes along *every* root->sink path against that
path's own sink budget, and Eq. (5)'s propagated window misses are
counted along each path independently (a miss on a fork branch does not
consume the sibling branch's budget).  Segments shared by several paths
-- join/fork stages -- get *one* deadline that must satisfy all of them,
which is what couples the per-path subproblems.

The solver mirrors :func:`~repro.budgeting.solvers.solve_greedy_propagated`
lifted to the DAG: start from the most conservative candidate per
segment and greedily descend until every path's telescoped sum fits,
never stepping through an Eq. (5') violation on any path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.budgeting.csp import BudgetingProblem, FeasibilityReport
from repro.budgeting.traces import ChainTrace
from repro.core.dag import DagChain


@dataclass
class DagFeasibilityReport:
    """Outcome of checking one deadline assignment on every path."""

    feasible: bool
    #: path id -> the path's linear feasibility report.
    per_path: Dict[str, FeasibilityReport] = field(default_factory=dict)

    @property
    def violated_constraints(self) -> List[str]:
        """Flat list of violated constraints, prefixed by path id."""
        out = []
        for path_id, report in self.per_path.items():
            out.extend(f"{path_id}: {v}" for v in report.violated_constraints)
        return out


@dataclass
class DagSolverResult:
    """Outcome of a DAG budgeting solve."""

    schedulable: bool
    #: Total deadline d per segment name; empty if unschedulable.
    deadlines: Dict[str, int] = field(default_factory=dict)
    #: Telescoped deadline sum per path id.
    path_totals: Dict[str, int] = field(default_factory=dict)
    reason: str = ""
    nodes_explored: int = 0


class DagBudgetingProblem:
    """One DAG's deadline-synthesis instance.

    Parameters
    ----------
    dag:
        The DAG (provides per-sink budgets, B_seg, per-path (m,k)).
    trace:
        Aligned traces covering every segment of the DAG.
    propagation:
        ``p_l`` per segment name; defaults to all 1 (every miss
        propagates downstream along each path).
    """

    def __init__(
        self,
        dag: DagChain,
        trace: ChainTrace,
        propagation: Optional[Mapping[str, int]] = None,
    ):
        self.dag = dag
        self.trace = trace.aligned()
        if self.trace.length == 0:
            raise ValueError("empty trace")
        if propagation is None:
            propagation = {name: 1 for name in dag.segments}
        missing = [s for s in dag.segments if s not in propagation]
        if missing:
            raise ValueError(f"need propagation factors for {missing}")
        self.propagation = dict(propagation)
        #: path id -> the path's linear budgeting subproblem.
        self.problems: Dict[str, BudgetingProblem] = {}
        for path in dag.paths():
            chain = dag.path_chain(path)
            self.problems[path.path_id] = BudgetingProblem(
                chain,
                self.trace,
                propagation=[propagation[s] for s in path.segment_names],
            )

    # ------------------------------------------------------------------
    def candidates(self, segment_name: str) -> List[int]:
        """Sorted distinct deadline candidates for one segment.

        Candidate sets are a per-segment property of the trace (clipped
        to B_seg), so any path subproblem containing the segment yields
        the same set.
        """
        for path in self.dag.paths():
            if segment_name in path.segment_names:
                problem = self.problems[path.path_id]
                return problem.candidates(
                    path.segment_names.index(segment_name)
                )
        raise KeyError(f"{self.dag.name}: unknown segment {segment_name!r}")

    def check(self, deadlines: Mapping[str, int]) -> DagFeasibilityReport:
        """Verify Eqs. (3')-(5') for one assignment of total deadlines."""
        missing = [s for s in self.dag.segments if s not in deadlines]
        if missing:
            raise ValueError(f"need deadlines for {missing}")
        per_path: Dict[str, FeasibilityReport] = {}
        for path in self.dag.paths():
            problem = self.problems[path.path_id]
            per_path[path.path_id] = problem.check(
                [deadlines[s] for s in path.segment_names]
            )
        return DagFeasibilityReport(
            feasible=all(r.feasible for r in per_path.values()),
            per_path=per_path,
        )

    def monitored_deadlines(self, deadlines: Mapping[str, int]) -> Dict[str, int]:
        """Split total deadlines into ``d_mon`` per segment."""
        out = {}
        for name, deadline in deadlines.items():
            d_ex = self.trace[name].d_ex
            d_mon = deadline - d_ex
            if d_mon <= 0:
                raise ValueError(
                    f"{name}: deadline {deadline} leaves no monitored "
                    f"budget after d_ex={d_ex}"
                )
            out[name] = d_mon
        return out

    def path_totals(self, deadlines: Mapping[str, int]) -> Dict[str, int]:
        """Telescoped deadline sum per path id."""
        return {
            path.path_id: sum(deadlines[s] for s in path.segment_names)
            for path in self.dag.paths()
        }

    # ------------------------------------------------------------------
    def _eq5_feasible(self, deadlines: Dict[str, int]) -> bool:
        """Eq. (5') alone (window misses), ignoring the budget sums."""
        for path in self.dag.paths():
            report = self.problems[path.path_id].check(
                [deadlines[s] for s in path.segment_names]
            )
            if any("Eq.5" in v for v in report.violated_constraints):
                return False
        return True

    def _sums_fit(self, deadlines: Dict[str, int]) -> bool:
        for path in self.dag.paths():
            total = sum(deadlines[s] for s in path.segment_names)
            if total > self.dag.budget_e2e[path.sink]:
                return False
        return True

    def solve_greedy(self) -> DagSolverResult:
        """Greedy descent from the most conservative assignment.

        Start each segment at its largest candidate (observed maximum
        clipped to B_seg).  While some path's telescoped sum exceeds its
        sink budget, lower the deadline of one segment *on an
        over-budget path* to its next smaller candidate -- the step with
        the largest gain that keeps Eq. (5') feasible on every path.
        """
        candidates = {s: self.candidates(s) for s in self.dag.segments}
        indices = {s: len(c) - 1 for s, c in candidates.items()}
        current = {s: candidates[s][indices[s]] for s in self.dag.segments}
        nodes = 1
        if not self._eq5_feasible(current):
            return DagSolverResult(
                schedulable=False,
                reason="even maximal deadlines violate Eq. (5') on some path",
                nodes_explored=nodes,
            )
        while not self._sums_fit(current):
            over_budget = set()
            for path in self.dag.paths():
                total = sum(current[s] for s in path.segment_names)
                if total > self.dag.budget_e2e[path.sink]:
                    over_budget.update(path.segment_names)
            best_step = None
            best_gain = 0
            for s in sorted(over_budget):
                if indices[s] == 0:
                    continue
                trial_value = candidates[s][indices[s] - 1]
                gain = current[s] - trial_value
                if gain <= best_gain:
                    continue
                trial = dict(current)
                trial[s] = trial_value
                nodes += 1
                if self._eq5_feasible(trial):
                    best_step = s
                    best_gain = gain
            if best_step is None:
                return DagSolverResult(
                    schedulable=False,
                    deadlines=current,
                    path_totals=self.path_totals(current),
                    reason="greedy descent stuck with over-budget paths",
                    nodes_explored=nodes,
                )
            indices[best_step] -= 1
            current[best_step] = candidates[best_step][indices[best_step]]
        report = self.check(current)
        if not report.feasible:
            return DagSolverResult(
                schedulable=False,
                deadlines=current,
                path_totals=self.path_totals(current),
                reason="; ".join(report.violated_constraints[:4]),
                nodes_explored=nodes,
            )
        return DagSolverResult(
            schedulable=True,
            deadlines=current,
            path_totals=self.path_totals(current),
            nodes_explored=nodes,
        )


def solve_dag_budgets(
    dag: DagChain,
    trace: ChainTrace,
    propagation: Optional[Mapping[str, int]] = None,
) -> DagSolverResult:
    """Convenience entry point: greedy per-path budget synthesis."""
    return DagBudgetingProblem(dag, trace, propagation).solve_greedy()
