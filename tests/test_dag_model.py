"""DAG event-chain model: validation, path enumeration, degeneracy.

Covers :mod:`repro.core.dag` (structure + linear round-trip) and
:mod:`repro.core.dag_runtime` (per-path (m,k) supervision).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DagChain, DagChainRuntime, DagPath, MKConstraint, Outcome
from repro.core.chains import ChainValidationError, EventChain
from repro.core.segments import local_segment, remote_segment
from repro.perception.stack import PerceptionStack, StackConfig
from repro.sim import msec


def diamond_segments():
    """a -> {b, c} -> d with gap-free stitching."""
    a = remote_segment("a", "t0", "ecuA", "ecuB")
    b = local_segment("b", "ecuB", "t0", "t1")
    c = local_segment("c", "ecuB", "t0", "t1")
    d = remote_segment("d", "t1", "ecuB", "ecuC")
    b.start = a.end
    c.start = a.end
    c.end = b.end
    d.start = b.end
    return [a, b, c, d]


def diamond(**kwargs):
    defaults = dict(
        name="diamond",
        segments=diamond_segments(),
        edges=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        period=100,
        budget_e2e=300,
    )
    defaults.update(kwargs)
    return DagChain(**defaults)


#: The perception stack's fork/join: two lidar branches join at fusion,
#: pass through the transfer s2 and fork to the two classifier sinks.
STACK_EDGES = [
    ("s0_front", "s1_front"), ("s0_rear", "s1_rear"),
    ("s1_front", "s2"), ("s1_rear", "s2"),
    ("s2", "s3_objects"), ("s2", "s3_ground"),
]


def perception_dag(stack):
    """The stack's four chains as one DAG, with per-sink budgets."""
    return DagChain(
        name="perception",
        segments=list(stack.segments.values()),
        edges=STACK_EDGES,
        period=stack.config.period,
        budget_e2e={"s3_objects": msec(250), "s3_ground": msec(200)},
        mk={"s3_objects": MKConstraint(3, 10)},
    )


class TestValidation:
    def test_duplicate_segment_rejected(self):
        segs = diamond_segments()
        with pytest.raises(ChainValidationError, match="duplicate segment"):
            DagChain("x", segs + [segs[0]], [], 100, 300)

    def test_empty_rejected(self):
        with pytest.raises(ChainValidationError, match=">= 1 segment"):
            DagChain("x", [], [], 100, 300)

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ChainValidationError, match="period"):
            diamond(period=0)

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ChainValidationError, match="unknown segment"):
            diamond(edges=[("a", "nope")])

    def test_self_loop_rejected(self):
        with pytest.raises(ChainValidationError, match="self-loop"):
            diamond(edges=[("a", "a")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ChainValidationError, match="duplicate edge"):
            diamond(edges=[("a", "b"), ("a", "b")])

    def test_cycle_rejected(self):
        x = local_segment("x", "ecuB", "t0", "t1")
        y = local_segment("y", "ecuB", "t1", "t0")
        # Stitch both directions so each edge is gap-free and only the
        # cycle itself is the defect.
        y.start = x.end
        x.start = y.end
        with pytest.raises(ChainValidationError, match="cycle"):
            DagChain("loop", [x, y], [("x", "y"), ("y", "x")], 100, 300)

    def test_gap_rejected(self):
        segs = diamond_segments()
        # Break the stitch: d now starts at an unrelated event.
        segs[3].start = segs[0].start
        with pytest.raises(ChainValidationError, match="unmonitored gap"):
            DagChain("x", segs,
                     [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
                     100, 300)

    def test_missing_sink_budget_rejected(self):
        with pytest.raises(ChainValidationError, match="no end-to-end budget"):
            diamond(budget_e2e={"not_d": 300})

    def test_budget_for_a_non_sink_rejected(self):
        # Every sink has its budget, but one key is misspelled: it must
        # not be dropped silently.
        with pytest.raises(ChainValidationError, match="name no sink"):
            diamond(budget_e2e={"d": 300, "d_typo": 100})

    def test_mk_for_a_non_sink_rejected(self):
        # Dropping the key would leave sink d hard (0,1) without a word.
        with pytest.raises(ChainValidationError,
                           match=r"mk key\(s\) \['s_plann'\] name no sink"):
            diamond(mk={"s_plann": MKConstraint(2, 8)})

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ChainValidationError, match="positive"):
            diamond(budget_e2e=0)


class TestStructure:
    def test_roots_sinks_diamond(self):
        dag = diamond()
        assert dag.roots() == ["a"]
        assert dag.sinks() == ["d"]
        assert dag.successors("a") == ["b", "c"]
        assert dag.predecessors("d") == ["b", "c"]

    def test_diamond_paths(self):
        paths = diamond().paths()
        assert [p.path_id for p in paths] == ["a>b>d", "a>c>d"]
        assert paths[0].root == "a" and paths[0].sink == "d"
        assert len(paths[0]) == 3

    def test_perception_dag_has_four_paths(self):
        stack = PerceptionStack(StackConfig(seed=1))
        dag = perception_dag(stack)
        assert len(dag) == 7
        assert dag.roots() == ["s0_front", "s0_rear"]
        assert dag.sinks() == ["s3_objects", "s3_ground"]
        ids = [p.path_id for p in dag.paths()]
        assert ids == [
            "s0_front>s1_front>s2>s3_objects",
            "s0_front>s1_front>s2>s3_ground",
            "s0_rear>s1_rear>s2>s3_objects",
            "s0_rear>s1_rear>s2>s3_ground",
        ]
        # Each path is one of the stack's chains, segment for segment.
        assert sorted(p.segment_names for p in dag.paths()) == sorted(
            tuple(s.name for s in chain.segments)
            for chain in stack.chains.values()
        )

    def test_path_by_id(self):
        dag = diamond()
        assert dag.path_by_id("a>c>d").segment_names == ("a", "c", "d")
        with pytest.raises(KeyError):
            dag.path_by_id("a>z>d")

    def test_per_sink_budget_and_mk(self):
        dag = perception_dag(PerceptionStack(StackConfig(seed=1)))
        assert dag.budget_e2e == {
            "s3_objects": msec(250), "s3_ground": msec(200),
        }
        # A sink the mk mapping leaves out is hard: (0,1).
        assert dag.mk == {
            "s3_objects": MKConstraint(3, 10),
            "s3_ground": MKConstraint(0, 1),
        }
        for path in dag.paths():
            chain = dag.path_chain(path)
            assert isinstance(chain, EventChain)
            assert chain.budget_e2e == dag.budget_e2e[path.sink]
            assert chain.mk == dag.mk[path.sink]
            assert chain.name == f"{dag.name}:{path.path_id}"

    def test_path_chains_keyed_by_id(self):
        dag = diamond()
        chains = dag.path_chains()
        assert set(chains) == {"a>b>d", "a>c>d"}

    def test_with_deadlines_and_check_budgets(self):
        dag = diamond()
        assert not dag.deadlines_assigned
        assigned = dag.with_deadlines({"a": 50, "b": 60, "c": 70, "d": 80})
        assert assigned.deadlines_assigned
        assert not dag.deadlines_assigned  # original untouched
        for chain in assigned.path_chains().values():
            chain.check_budget()  # worst path a>c>d sums to 200 <= 300
        # Shrinking one sink's budget below that path sum must raise --
        # the per-path Eq. (3) check, not the (satisfied) linear one.
        tight = diamond(budget_e2e=150).with_deadlines(
            {"a": 50, "b": 60, "c": 70, "d": 80}
        )
        with pytest.raises(ChainValidationError, match="exceeds budget"):
            for chain in tight.path_chains().values():
                chain.check_budget()

    def test_with_deadlines_missing_segment_rejected(self):
        with pytest.raises(ValueError, match="no deadline"):
            diamond().with_deadlines({"a": 50})


@st.composite
def linear_chains(draw):
    """A gap-free linear chain: local and remote segments, deadlines
    assigned or not, any budgets and (m,k)."""
    n_segments = draw(st.integers(min_value=1, max_value=5))
    segments = []
    for i in range(n_segments):
        d_mon = draw(st.none() | st.integers(min_value=1, max_value=500))
        if draw(st.booleans()):
            segment = local_segment(f"s{i}", "ecu", f"t{i}", f"t{i + 1}",
                                    d_mon=d_mon)
        else:
            segment = remote_segment(f"s{i}", f"t{i}", "ecu", "peer",
                                     d_mon=d_mon)
        if segments:
            segment.start = segments[-1].end
        segments.append(segment)
    k = draw(st.integers(min_value=1, max_value=10))
    return EventChain(
        "generated", segments,
        period=draw(st.integers(min_value=1, max_value=1000)),
        budget_e2e=draw(st.integers(min_value=1, max_value=5000)),
        budget_seg=draw(st.none() | st.integers(min_value=1, max_value=1000)),
        mk=MKConstraint(draw(st.integers(min_value=0, max_value=k)), k),
    )


def assert_single_path(chain):
    (path,) = DagChain.from_linear(chain).paths()
    assert path.segment_names == tuple(s.name for s in chain.segments)


class TestLinearDegeneracy:
    def test_round_trip_equals_original_for_stack_chains(self):
        stack = PerceptionStack(StackConfig(seed=1))
        assert len(stack.chains) == 4
        for name, chain in stack.chains.items():
            assert DagChain.from_linear(chain).to_linear() == chain, name

    def test_from_linear_is_single_path(self):
        stack = PerceptionStack(StackConfig(seed=1))
        for chain in stack.chains.values():
            assert_single_path(chain)

    @settings(max_examples=100, deadline=None)
    @given(chain=linear_chains())
    def test_generated_linear_chain_is_degenerate(self, chain):
        """Equal by dataclass equality after the round trip, and one
        path in segment order -- for any linear chain, not only the
        stack's four."""
        assert DagChain.from_linear(chain).to_linear() == chain
        assert_single_path(chain)

    def test_to_linear_rejects_forking_dag(self):
        with pytest.raises(ChainValidationError, match="single-path"):
            diamond().to_linear()


class TestDagChainRuntime:
    def mk_diamond(self, m=1, k=4):
        return diamond(mk=MKConstraint(m, k))

    def test_segment_report_routes_to_containing_paths(self):
        runtime = DagChainRuntime(self.mk_diamond())
        runtime.report("b", 0, Outcome.MISS, latency=120)
        runtime.report("c", 0, Outcome.OK, latency=40)
        reports = runtime.finalize(0)
        assert reports["a>b>d"].miss_count == 1
        assert reports["a>b>d"].misses == [True]
        assert reports["a>c>d"].miss_count == 0
        assert reports["a>c>d"].misses == [False]

    def test_shared_segment_report_hits_all_paths(self):
        runtime = DagChainRuntime(self.mk_diamond())
        runtime.report("a", 0, Outcome.MISS)
        reports = runtime.finalize(0)
        assert reports["a>b>d"].misses == [True]
        assert reports["a>c>d"].misses == [True]

    def test_report_unknown_segment_raises(self):
        # A misspelled monitor segment name must fail loudly, not
        # silently drop every outcome.
        runtime = DagChainRuntime(self.mk_diamond())
        with pytest.raises(KeyError, match="unknown segment"):
            runtime.report("b_typo", 0, Outcome.MISS)

    def test_report_path_targets_one_path(self):
        # b lies on a>b>d only, so its report lands on that path alone.
        runtime = DagChainRuntime(self.mk_diamond())
        runtime.report("b", 0, Outcome.MISS)
        reports = runtime.finalize(0)
        assert reports["a>b>d"].misses == [True]
        assert reports["a>c>d"].misses == [False]

    def test_advance_window_fires_on_violation(self):
        fired = []
        runtime = DagChainRuntime(
            self.mk_diamond(m=1, k=4),
            on_violation=lambda pid, n, misses: fired.append((pid, n, misses)),
        )
        for n in range(4):
            runtime.report("b", n, Outcome.MISS)
        runtime.advance_window(3)
        assert fired and fired[0][0] == "a>b>d"
        assert runtime.violated_paths == ["a>b>d"]

    def test_finalize_mk_verdict_matches_constraint(self):
        runtime = DagChainRuntime(self.mk_diamond(m=1, k=4))
        # 2 misses in a 4-window on a>b>d: violated; a>c>d clean.
        for n in range(4):
            outcome = Outcome.MISS if n < 2 else Outcome.OK
            runtime.report("b", n, outcome)
            runtime.report("c", n, Outcome.OK)
        reports = runtime.finalize(3)
        assert not reports["a>b>d"].mk_satisfied
        assert reports["a>b>d"].max_window_misses == 2
        assert reports["a>c>d"].mk_satisfied

    def test_unreported_activations_count_as_ok(self):
        runtime = DagChainRuntime(self.mk_diamond())
        runtime.report("b", 2, Outcome.MISS)
        reports = runtime.finalize(2)
        assert reports["a>b>d"].misses == [False, False, True]
