"""DAG event-chain model (:mod:`repro.core.dag`): validation, path
enumeration, the per-path linear projection and linear degeneracy."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DagChain, MKConstraint
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


def from_linear(chain):
    """A linear chain as the degenerate single-path DAG."""
    names = [segment.name for segment in chain.segments]
    return DagChain(
        name=chain.name, segments=list(chain.segments),
        edges=list(zip(names, names[1:])), period=chain.period,
        budget_e2e=chain.budget_e2e, budget_seg=chain.budget_seg,
        mk=chain.mk,
    )


def round_trip(chain):
    """The chain back from its DAG's one path, under its own name."""
    dag = from_linear(chain)
    (path,) = dag.paths()
    return dataclasses.replace(dag.path_chain(path), name=chain.name)


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
    (path,) = from_linear(chain).paths()
    assert path.segment_names == tuple(s.name for s in chain.segments)


class TestLinearDegeneracy:
    """Linear chains are the degenerate DAG: one path, whose projection
    is the chain again (``path_chain`` names it ``dag:path``)."""

    def test_round_trip_equals_original_for_stack_chains(self):
        stack = PerceptionStack(StackConfig(seed=1))
        assert len(stack.chains) == 4
        for name, chain in stack.chains.items():
            assert round_trip(chain) == chain, name

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
        assert round_trip(chain) == chain
        assert_single_path(chain)
