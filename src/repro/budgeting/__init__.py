"""Trace-based segment-deadline synthesis (paper Sec. III-C).

Workflow:

1. Record latency traces ``L^si`` per segment from an *unmonitored* run
   (:mod:`repro.budgeting.traces`), extend them by the exception-handling
   WCRT: ``l' = l + d_ex``.
2. Pose the constraint-satisfaction problem of Eqs. (2)-(7)
   (:mod:`repro.budgeting.csp`): find minimum total deadlines ``d^si``
   subject to the end-to-end budget (Eq. 3), the throughput bound
   (Eq. 4) and the windowed (m,k) miss constraints with propagation
   factors ``p_l in {0, 1}`` (Eqs. 5-7).
3. Solve (:mod:`repro.budgeting.solvers`): for ``p = 0`` the problem
   splits into exact single-variable problems per segment; for ``p = 1``
   a greedy descent heuristic and an exact branch-and-bound are
   provided (the paper defers this case to "heuristic methods or ILP").
   Chains that share segments -- the use case's four, or a fork/join
   DAG's root->sink path chains (:func:`repro.core.dag.path_chains`) --
   get one deadline per segment from the exact joint search
   (:mod:`repro.budgeting.multichain`).
4. Optionally distribute leftover budget
   (:mod:`repro.budgeting.distribution`) and deploy the deadlines as the
   segments' ``d_mon`` (``StackConfig.d_mon`` on the perception stack),
   where :mod:`repro.budgeting.feasibility` checks them at load time.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.budgeting.traces": ("ChainTrace", "SegmentTrace"),
    "repro.budgeting.windows": (
        "miss_series", "propagated_window_misses", "window_miss_profile",
    ),
    "repro.budgeting.csp": ("BudgetingProblem", "FeasibilityReport"),
    "repro.budgeting.solvers": (
        "SolverResult", "minimal_deadline", "solve_branch_and_bound",
        "solve_greedy_propagated", "solve_independent",
    ),
    "repro.budgeting.distribution": ("distribute_slack",),
    "repro.budgeting.feasibility": (
        "InfeasibleBudgetError", "feasibility_violations",
        "validate_chain_budgets",
    ),
    "repro.budgeting.multichain": (
        "MultiChainResult", "reconcile_independent", "solve_joint",
    ),
})
