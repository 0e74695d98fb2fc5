"""Property tests of the DAG budgeting CSP and per-path (m,k) tracking.

Hypothesis generates small random fork/join DAGs (optional head fork,
1-3 branches, optional join tail) with random latency traces; for each:

* path enumeration matches an independent brute-force DFS oracle;
* every schedulable solver result telescopes within each sink's
  ``B_e2e`` along **every** root->sink path (checked by brute force over
  the enumerated paths, not via the solver's own bookkeeping) and passes
  the per-path Eq. (3')-(5') checker;
* the per-path bit-packed :class:`MKAutomaton` driven by
  :class:`DagChainRuntime` agrees record-for-record with the reference
  :class:`MissWindow` checker on random outcome sequences;
* a degenerate single-path DAG runtime reports exactly what the linear
  :class:`ChainRuntime` reports on generated per-segment outcome streams.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.budgeting import ChainTrace, DagBudgetingProblem, SegmentTrace
from repro.budgeting.dag import solve_dag_budgets
from repro.core import (
    ChainRuntime,
    DagChain,
    DagChainRuntime,
    EventChain,
    MKConstraint,
    Outcome,
)
from repro.core.segments import local_segment

from _reference.miss_window import MissWindow


def build_fork_join(has_head, branch_lengths, tail_length):
    """Construct a gap-free fork/join DAG skeleton.

    ``head? -> branches (parallel linear runs) -> tail?``.  With no tail
    and several branches the DAG has several sinks; with no head it has
    several roots.
    """
    nodes = []
    edges = []
    branches = []
    for b, length in enumerate(branch_lengths):
        branch = [f"b{b}_{i}" for i in range(length)]
        branches.append(branch)
        nodes.extend(branch)
        edges.extend(zip(branch, branch[1:]))
    if has_head:
        nodes.insert(0, "head")
        edges = [("head", branch[0]) for branch in branches] + edges
    tail = [f"t{i}" for i in range(tail_length)]
    if tail:
        nodes.extend(tail)
        edges.extend((branch[-1], tail[0]) for branch in branches)
        edges.extend(zip(tail, tail[1:]))

    segments = {
        n: local_segment(n, "ecu", f"in_{n}", f"out_{n}") for n in nodes
    }
    # Stitch every edge gap-free; joins share one event object.
    preds = {n: [] for n in nodes}
    for src, dst in edges:
        preds[dst].append(src)
    for dst, srcs in preds.items():
        if not srcs:
            continue
        shared = segments[srcs[0]].end
        for src in srcs:
            segments[src].end = shared
        segments[dst].start = shared
    return [segments[n] for n in nodes], edges


def brute_force_paths(segment_names, edges):
    """Independent DFS path enumeration (the oracle)."""
    succ = {n: [] for n in segment_names}
    preds = set()
    for src, dst in edges:
        succ[src].append(dst)
        preds.add(dst)
    out = []

    def walk(node, prefix):
        prefix = prefix + [node]
        if not succ[node]:
            out.append(tuple(prefix))
        for nxt in succ[node]:
            walk(nxt, prefix)

    for root in segment_names:
        if root not in preds:
            walk(root, [])
    return out


@st.composite
def dag_instances(draw):
    has_head = draw(st.booleans())
    n_branches = draw(st.integers(min_value=1, max_value=3))
    branch_lengths = [
        draw(st.integers(min_value=1, max_value=2)) for _ in range(n_branches)
    ]
    tail_length = draw(st.integers(min_value=0, max_value=2))
    segments, edges = build_fork_join(has_head, branch_lengths, tail_length)
    n_activations = draw(st.integers(min_value=6, max_value=10))
    latencies = {
        s.name: draw(st.lists(
            st.integers(min_value=1, max_value=12),
            min_size=n_activations, max_size=n_activations,
        ))
        for s in segments
    }
    k = draw(st.integers(min_value=2, max_value=5))
    return {
        "segments": segments,
        "edges": edges,
        "latencies": latencies,
        "budget_seg": draw(st.integers(min_value=4, max_value=14)),
        "budget_e2e": draw(st.integers(min_value=8, max_value=60)),
        "mk": MKConstraint(draw(st.integers(min_value=0, max_value=min(3, k))), k),
    }


def make_dag(case):
    return DagChain(
        name="prop",
        segments=case["segments"],
        edges=case["edges"],
        period=100,
        budget_e2e=case["budget_e2e"],
        budget_seg=case["budget_seg"],
        mk=case["mk"],
    )


def make_trace(case):
    trace = ChainTrace("prop")
    for segment in case["segments"]:
        trace.add(SegmentTrace(segment.name, case["latencies"][segment.name]))
    return trace


@settings(max_examples=50, deadline=None)
@given(case=dag_instances())
def test_path_enumeration_matches_brute_force(case):
    dag = make_dag(case)
    expected = brute_force_paths(
        [s.name for s in case["segments"]], case["edges"]
    )
    assert [p.segment_names for p in dag.paths()] == expected
    # Path ids are the canonical joined rendering, and unique.
    ids = [p.path_id for p in dag.paths()]
    assert ids == [">".join(names) for names in expected]
    assert len(set(ids)) == len(ids)


@settings(max_examples=40, deadline=None)
@given(case=dag_instances())
def test_schedulable_solutions_telescope_on_every_path(case):
    dag = make_dag(case)
    problem = DagBudgetingProblem(dag, make_trace(case))
    result = problem.solve_greedy()
    if not result.schedulable:
        return
    # Brute-force oracle: walk every enumerated path independently of
    # the solver's own path bookkeeping.
    for names in brute_force_paths(
        [s.name for s in case["segments"]], case["edges"]
    ):
        total = sum(result.deadlines[n] for n in names)
        sink = names[-1]
        assert total <= dag.budget_e2e[sink], (
            f"path {'>'.join(names)}: deadline sum {total} exceeds "
            f"sink budget {dag.budget_e2e[sink]}"
        )
    # Eq. (3')-(5') all hold, and segment deadlines respect B_seg.
    report = problem.check(result.deadlines)
    assert report.feasible, report.violated_constraints
    for deadline in result.deadlines.values():
        assert deadline <= case["budget_seg"]
    # The d_mon split is positive everywhere (d_ex = 0 in these traces).
    monitored = result.as_monitored(problem)
    assert all(d > 0 for d in monitored.values())
    assert result.path_totals == problem.path_totals(result.deadlines)


@settings(max_examples=40, deadline=None)
@given(case=dag_instances())
def test_unschedulable_verdicts_have_no_maximal_witness(case):
    """When the solver gives up, the most conservative assignment really
    is infeasible (either Eq. (5') fails there or budgets cannot fit)."""
    dag = make_dag(case)
    problem = DagBudgetingProblem(dag, make_trace(case))
    result = problem.solve_greedy()
    if result.schedulable:
        return
    maximal = {
        name: problem.candidates(name)[-1] for name in dag.segments
    }
    report = problem.check(maximal)
    # Greedy starts at the maximal assignment and only descends, so an
    # unschedulable verdict with a feasible maximal point is a bug.
    assert not report.feasible


@settings(max_examples=60, deadline=None)
@given(
    misses=st.lists(st.booleans(), min_size=1, max_size=40),
    m=st.integers(min_value=0, max_value=4),
    k=st.integers(min_value=1, max_value=8),
)
def test_per_path_automaton_equivalent_to_miss_window(misses, m, k):
    if m > k:
        m = k
    mk = MKConstraint(m, k)
    seg = local_segment("s", "ecu", "t0", "t1")
    dag = DagChain("one", [seg], [], period=100, budget_e2e=1000, mk=mk)
    fired = []
    runtime = DagChainRuntime(
        dag, on_violation=lambda pid, n, w: fired.append(n)
    )
    reference = MissWindow(mk)
    expected_fired = []
    for n, miss in enumerate(misses):
        runtime.report(
            "s", n, Outcome.MISS if miss else Outcome.OK
        )
        runtime.advance_window(n)
        if reference.record(miss):
            expected_fired.append(n)
        automaton = runtime.path_runtimes["s"].window
        assert automaton.misses_in_window == reference.misses_in_window, (
            f"divergence at record {n}"
        )
    assert fired == expected_fired
    assert runtime.path_runtimes["s"].window.violations == reference.violations
    final = runtime.finalize(len(misses) - 1)["s"]
    assert final.mk_satisfied == (reference.violations == 0)


@st.composite
def outcome_streams(draw):
    """A linear chain plus per-activation, per-segment outcome reports.

    Reports may skip a segment (unreported = OK), skip whole
    activations, and the window may be advanced at any prefix.
    """
    n_segments = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=k))
    segments = [
        local_segment(f"s{i}", "ecu", f"t{i}", f"t{i + 1}")
        for i in range(n_segments)
    ]
    for earlier, later in zip(segments, segments[1:]):
        later.start = earlier.end  # gap-free
    chain = EventChain(
        "linear", segments, period=100, budget_e2e=1000, mk=MKConstraint(m, k)
    )
    cell = st.none() | st.tuples(
        st.sampled_from(list(Outcome)),
        st.none() | st.integers(min_value=0, max_value=500),
        st.none() | st.integers(min_value=0, max_value=50),
    )
    activations = draw(st.lists(
        st.tuples(st.lists(cell, min_size=n_segments, max_size=n_segments),
                  st.booleans()),
        max_size=25,
    ))
    return chain, activations


@settings(max_examples=100, deadline=None)
@given(stream=outcome_streams())
def test_degenerate_dag_runtime_equals_chain_runtime(stream):
    """The degeneracy invariant at runtime level: a linear chain folded
    through ``DagChainRuntime(DagChain.from_linear(c))`` yields the same
    report and the same violation callbacks as ``ChainRuntime(c)``."""
    chain, activations = stream
    linear_fired, dag_fired = [], []
    linear = ChainRuntime(
        chain, on_violation=lambda n, w: linear_fired.append((n, w))
    )
    dag = DagChainRuntime(
        DagChain.from_linear(chain),
        on_violation=lambda pid, n, w: dag_fired.append((n, w)),
    )
    for n, (cells, advance) in enumerate(activations):
        for segment, cell in zip(chain.segments, cells):
            if cell is not None:
                linear.report(segment.name, n, *cell)
                dag.report(segment.name, n, *cell)
        if advance:
            linear.advance_window(n)
            dag.advance_window(n)
    through = len(activations) - 1
    linear.advance_window(through)
    dag.advance_window(through)
    (path_report,) = dag.finalize(through).values()
    expected = dataclasses.asdict(linear.finalize(through))
    # A single-path DAG names its one path after its segments.
    expected["chain_name"] = path_report.chain_name
    assert dataclasses.asdict(path_report) == expected
    assert dag_fired == linear_fired
    assert bool(dag.violated_paths) == linear.window.violated
