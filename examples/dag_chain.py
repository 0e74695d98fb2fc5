#!/usr/bin/env python3
"""Fork/join DAG chains: per-sink budgets and joint budget synthesis.

Walks the DAG generalization on the perception stack's own topology:

1. build the stack's 7 segments into one DAG (front and rear lidar
   branches joining at fusion, a fused transfer s2 that fans out to the
   objects and ground sinks), give the two sinks different end-to-end
   budgets, and check the edge list into its four root->sink path
   chains -- the stack's four chains;
2. synthesize one deadline per segment with the joint solver over the
   path chains (every path's Eqs. 3-5 against its own sink budget, one
   deadline per shared segment) and verify the telescoping by brute
   force.

Run:  python examples/dag_chain.py
"""

from repro.budgeting import (
    BudgetingProblem, ChainTrace, SegmentTrace, solve_joint,
)
from repro.core.dag import path_chains
from repro.perception.stack import PerceptionStack, StackConfig
from repro.sim import msec

#: Join at fusion (s1_*), fork after the transfer (s2).
EDGES = [
    ("s0_front", "s1_front"), ("s0_rear", "s1_rear"),
    ("s1_front", "s2"), ("s1_rear", "s2"),
    ("s2", "s3_objects"), ("s2", "s3_ground"),
]


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Topology: forks, joins, and the four monitored paths.
    # ------------------------------------------------------------------
    config = StackConfig()
    stack = PerceptionStack(config)
    chains = path_chains(
        name="perception",
        segments=list(stack.segments.values()),
        edges=EDGES,
        period=config.period,
        # The ground sink carries a tighter contract than the objects
        # one, tight enough that the solver must shorten its path.
        budget_e2e={"s3_objects": msec(250), "s3_ground": msec(100)},
        mk=config.mk,
    )
    print(f"DAG 'perception': {len(stack.segments)} segments, "
          f"{len(chains)} root->sink paths")
    for path_id, chain in chains.items():
        print(f"  {path_id:<34s} B_e2e={chain.budget_e2e / msec(1):6.1f} ms")
    assert len(chains) == len(stack.chains) == 4

    # ------------------------------------------------------------------
    # 2. Joint budget synthesis over the path chains (Eqs. 3-5 per path).
    # ------------------------------------------------------------------
    # A synthetic latency trace: each segment observed at 60/70/80 % of
    # its configured monitoring deadline across 10 activations.
    trace = ChainTrace("perception")
    for name in stack.segments:
        nominal = config.d_mon[name]
        trace.add(SegmentTrace(name, [
            int(nominal * f) for f in (0.6, 0.7, 0.8, 0.6, 0.7,
                                       0.8, 0.6, 0.7, 0.8, 0.6)
        ]))
    result = solve_joint(
        [BudgetingProblem(chain, trace) for chain in chains.values()]
    )
    assert result.schedulable and not result.reason, result.reason
    print("\nsynthesized monitoring deadlines "
          f"({result.nodes_explored} search nodes, "
          f"total {result.total / msec(1):.1f} ms):")
    for name, deadline in sorted(result.deadlines.items()):
        print(f"  d({name:<10s}) = {deadline / msec(1):6.2f} ms")
    # Brute-force telescoping check, independent of the solver.
    for path_id, chain in chains.items():
        total = sum(result.deadlines[s.name] for s in chain.segments)
        assert total <= chain.budget_e2e, path_id
        print(f"  path {path_id:<34s} "
              f"sum={total / msec(1):6.1f} ms  "
              f"<= {chain.budget_e2e / msec(1):6.1f} ms")


if __name__ == "__main__":
    main()
