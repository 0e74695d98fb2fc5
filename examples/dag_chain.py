#!/usr/bin/env python3
"""Fork/join DAG chains: per-sink budgets and per-path budget synthesis.

Walks the DAG generalization on the perception stack's own topology:

1. build the stack's 7 segments into one DAG (front and rear lidar
   branches joining at fusion, a fused transfer s2 that fans out to the
   objects and ground sinks), give the two sinks different end-to-end
   budgets, and enumerate the four root->sink paths -- the stack's four
   chains;
2. synthesize per-segment monitoring deadlines with the DAG CSP solver
   (Eqs. 3'-5': the telescoped sum along *every* path must fit that
   path's own sink budget) and verify the telescoping by brute force.

Run:  python examples/dag_chain.py
"""

from repro.budgeting import ChainTrace, SegmentTrace
from repro.budgeting.dag import solve_dag_budgets
from repro.core import DagChain
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
    dag = DagChain(
        name="perception",
        segments=list(stack.segments.values()),
        edges=EDGES,
        period=config.period,
        # The ground sink carries a tighter contract than the objects
        # one, tight enough that the solver must shorten its path.
        budget_e2e={"s3_objects": msec(250), "s3_ground": msec(100)},
        mk=config.mk,
    )
    print(f"DAG '{dag.name}': {len(dag)} segments, "
          f"roots={dag.roots()}, sinks={dag.sinks()}")
    for path in dag.paths():
        budget = dag.budget_e2e[path.sink]
        print(f"  {path.path_id:<34s} B_e2e={budget / msec(1):6.1f} ms")
    assert len(dag.paths()) == len(stack.chains) == 4

    # ------------------------------------------------------------------
    # 2. Per-path budget synthesis (DAG CSP, Eqs. 3'-5').
    # ------------------------------------------------------------------
    # A synthetic latency trace: each segment observed at 60/70/80 % of
    # its configured monitoring deadline across 10 activations.
    trace = ChainTrace(dag.name)
    for name in dag.segments:
        nominal = config.d_mon[name]
        trace.add(SegmentTrace(name, [
            int(nominal * f) for f in (0.6, 0.7, 0.8, 0.6, 0.7,
                                       0.8, 0.6, 0.7, 0.8, 0.6)
        ]))
    result = solve_dag_budgets(dag, trace)
    assert result.schedulable, result.reason
    print("\nsynthesized monitoring deadlines "
          f"({result.nodes_explored} CSP nodes):")
    for name, deadline in sorted(result.deadlines.items()):
        print(f"  d({name:<10s}) = {deadline / msec(1):6.2f} ms")
    # Brute-force telescoping check, independent of the solver.
    for path in dag.paths():
        total = sum(result.deadlines[n] for n in path.segment_names)
        assert total <= dag.budget_e2e[path.sink], path.path_id
        print(f"  path {path.path_id:<34s} "
              f"sum={total / msec(1):6.1f} ms  "
              f"<= {dag.budget_e2e[path.sink] / msec(1):6.1f} ms")


if __name__ == "__main__":
    main()
