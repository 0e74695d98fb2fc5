"""Property tests of DAG budgeting and per-path (m,k) tracking.

A DAG is budgeted as its root->sink path chains
(:func:`repro.core.dag.path_chains`) by the joint shared-segment solver,
:func:`repro.budgeting.solve_joint`.  Hypothesis generates small random
fork/join DAGs (optional head fork, 1-3 branches, optional join tail)
with random latency traces and a budget per sink; for each:

* path enumeration matches an independent brute-force DFS oracle;
* every schedulable joint result telescopes within each sink's
  ``B_e2e`` along **every** root->sink path (checked by brute force over
  the enumerated paths, not via the solver's own bookkeeping) and passes
  every path chain's Eqs. (3)-(5) check;
* an unschedulable verdict has no feasible maximal assignment;
* the bit-packed :class:`MKAutomaton` of a path's ``ChainRuntime``
  agrees record-for-record with the reference :class:`MissWindow`
  checker on random outcome sequences.

On seeded smaller DAGs the joint result equals the brute-force minimum
over every combination of candidate deadlines, and a reproducer pins
what a node-limited search reports.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.budgeting import (
    BudgetingProblem, ChainTrace, SegmentTrace, solve_joint,
)
from repro.core import ChainRuntime, MKConstraint, Outcome
from repro.core.dag import path_chains
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


def sinks_of(segments, edges):
    sources = {src for src, _dst in edges}
    return [s.name for s in segments if s.name not in sources]


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
        "budget_e2e": {
            sink: draw(st.integers(min_value=8, max_value=60))
            for sink in sinks_of(segments, edges)
        },
        "mk": MKConstraint(draw(st.integers(min_value=0, max_value=min(3, k))), k),
    }


def make_chains(case):
    """The case's path chains; ``B_seg`` is the period."""
    return path_chains(
        name="prop",
        segments=case["segments"],
        edges=case["edges"],
        period=case["budget_seg"],
        budget_e2e=case["budget_e2e"],
        mk=case["mk"],
    )


def make_trace(case):
    trace = ChainTrace("prop")
    for segment in case["segments"]:
        trace.add(SegmentTrace(segment.name, case["latencies"][segment.name]))
    return trace


def make_problems(case):
    trace = make_trace(case)
    return [
        BudgetingProblem(chain, trace) for chain in make_chains(case).values()
    ]


def feasible(problems, deadlines):
    return all(
        problem.check([deadlines[n] for n in problem.order]).feasible
        for problem in problems
    )


#: A fork/join DAG whose joint search runs to 10,766 nodes: head, three
#: branches (2, 2, 1 segments) and a 2-segment join tail, B_seg = 14,
#: B_e2e = 48, (2, 2).  The optimum is 59.
REPRODUCER = {
    "latencies": {
        "head": [5, 6, 2, 11, 12, 5, 4],
        "b0_0": [1, 3, 10, 3, 12, 10, 8],
        "b0_1": [3, 6, 1, 11, 5, 7, 10],
        "b1_0": [2, 5, 10, 7, 6, 1, 1],
        "b1_1": [3, 7, 4, 10, 4, 5, 6],
        "b2_0": [2, 5, 10, 7, 6, 1, 1],
        "t0": [8, 1, 4, 3, 11, 1, 7],
        "t1": [1, 12, 8, 4, 8, 9, 8],
    },
    "budget_seg": 14,
    "budget_e2e": {"t1": 48},
    "mk": MKConstraint(2, 2),
}


def reproducer_problems():
    segments, edges = build_fork_join(True, [2, 2, 1], 2)
    return make_problems(dict(REPRODUCER, segments=segments, edges=edges))


@settings(max_examples=50, deadline=None)
@given(case=dag_instances())
def test_path_enumeration_matches_brute_force(case):
    chains = make_chains(case)
    expected = brute_force_paths(
        [s.name for s in case["segments"]], case["edges"]
    )
    assert [
        tuple(s.name for s in chain.segments) for chain in chains.values()
    ] == expected
    # Path ids are the canonical joined rendering (so unique), and each
    # path chain carries its own sink's budget.
    assert list(chains) == [">".join(names) for names in expected]
    for names, chain in zip(expected, chains.values()):
        assert chain.budget_e2e == case["budget_e2e"][names[-1]]


@settings(max_examples=40, deadline=None)
@given(case=dag_instances())
def test_schedulable_solutions_telescope_on_every_path(case):
    problems = make_problems(case)
    result = solve_joint(problems)
    if not result.schedulable:
        return
    assert not result.reason
    # Brute-force oracle: walk every enumerated path independently of
    # the solver's own path bookkeeping.
    for names in brute_force_paths(
        [s.name for s in case["segments"]], case["edges"]
    ):
        total = sum(result.deadlines[n] for n in names)
        sink = names[-1]
        assert total <= case["budget_e2e"][sink], (
            f"path {'>'.join(names)}: deadline sum {total} exceeds "
            f"sink budget {case['budget_e2e'][sink]}"
        )
    # Eqs. (3)-(5) hold on every path, deadlines respect B_seg, one
    # deadline per segment, and the total is their sum.
    assert feasible(problems, result.deadlines)
    assert set(result.deadlines) == {s.name for s in case["segments"]}
    assert result.total == sum(result.deadlines.values())
    for deadline in result.deadlines.values():
        assert deadline <= case["budget_seg"]
    # The d_mon split is positive everywhere (d_ex = 0 in these traces).
    for problem in problems:
        monitored = problem.monitored_deadlines(
            [result.deadlines[n] for n in problem.order]
        )
        assert all(d > 0 for d in monitored.values())


@settings(max_examples=40, deadline=None)
@given(case=dag_instances())
def test_unschedulable_verdicts_have_no_maximal_witness(case):
    """When the solver finds nothing, the most conservative assignment
    really is infeasible (either Eq. (5) fails there or the budgets
    cannot fit)."""
    problems = make_problems(case)
    result = solve_joint(problems)
    if result.schedulable:
        return
    assert "node limit" not in result.reason
    maximal = {
        name: problem.candidates(index)[-1]
        for problem in problems
        for index, name in enumerate(problem.order)
    }
    # Raising a deadline never adds misses, so a feasible maximal point
    # under an unschedulable verdict would be a bug.
    assert not feasible(problems, maximal)


def small_dag(rng):
    """A seeded DAG of at most four segments, small enough to enumerate
    every combination of candidate deadlines."""
    has_head = rng.random() < 0.5
    segments, edges = build_fork_join(
        has_head, [1] * rng.randint(1, 3 - has_head), rng.randint(0, 1)
    )
    n_activations = rng.randint(4, 6)
    k = rng.randint(1, 4)
    return {
        "segments": segments,
        "edges": edges,
        "latencies": {
            s.name: [rng.randint(1, 8) for _ in range(n_activations)]
            for s in segments
        },
        "budget_seg": rng.randint(4, 10),
        "budget_e2e": {
            sink: rng.randint(6, 26) for sink in sinks_of(segments, edges)
        },
        "mk": MKConstraint(rng.randint(0, k), k),
    }


def brute_force_minimum(problems):
    """Least total over every combination of candidate deadlines that
    passes every path chain's check, or None."""
    names, candidates = [], {}
    for problem in problems:
        for index, name in enumerate(problem.order):
            if name not in candidates:
                names.append(name)
                candidates[name] = problem.candidates(index)
    checks = {}  # (chain, its deadlines) -> feasible

    def chain_ok(c, problem, deadlines):
        key = (c, tuple(deadlines[n] for n in problem.order))
        if key not in checks:
            checks[key] = problem.check(list(key[1])).feasible
        return checks[key]

    best = None
    for combo in itertools.product(*(candidates[n] for n in names)):
        total = sum(combo)
        if best is not None and total >= best:
            continue
        deadlines = dict(zip(names, combo))
        if all(chain_ok(c, p, deadlines) for c, p in enumerate(problems)):
            best = total
    return best


def test_joint_solver_equals_the_brute_force_minimum():
    rng = random.Random(46)
    compared, verdicts = 0, set()
    for _ in range(60):
        problems = make_problems(small_dag(rng))
        result = solve_joint(problems)
        expected = brute_force_minimum(problems)
        assert result.schedulable == (expected is not None)
        assert not result.reason or not result.schedulable
        if result.schedulable:
            assert result.total == expected
            assert feasible(problems, result.deadlines)
        compared += 1
        verdicts.add(result.schedulable)
    assert compared > 0
    assert verdicts == {True, False}


def test_a_node_limited_search_says_its_total_may_not_be_minimal():
    """Cut after it found an assignment, the search still returns it
    (total 77 against the optimum 59) and says why it may not be
    minimal; cut before, it says the limit, not that none exists."""
    problems = reproducer_problems()
    found = solve_joint(problems, max_nodes=2_000)
    assert (found.schedulable, found.total) == (True, 77)
    assert found.reason == "node limit reached: the total may not be minimal"
    assert feasible(problems, found.deadlines)
    none_yet = solve_joint(problems, max_nodes=500)
    assert not none_yet.schedulable
    assert "node limit reached" in none_yet.reason


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
    (chain,) = path_chains(
        "one", [seg], [], period=100, budget_e2e={"s": 1000}, mk=mk
    ).values()
    fired = []
    runtime = ChainRuntime(chain, on_violation=lambda n, w: fired.append(n))
    reference = MissWindow(mk)
    expected_fired = []
    for n, miss in enumerate(misses):
        runtime.report(
            "s", n, Outcome.MISS if miss else Outcome.OK
        )
        runtime.advance_window(n)
        if reference.record(miss):
            expected_fired.append(n)
        assert runtime.window.misses_in_window == reference.misses_in_window, (
            f"divergence at record {n}"
        )
    assert fired == expected_fired
    assert runtime.window.violations == reference.violations
    final = runtime.finalize(len(misses) - 1)
    assert final.mk_satisfied == (reference.violations == 0)
