"""DAG event-chain model (:mod:`repro.core.dag`): validation of the edge
list, the root->sink path chains and linear degeneracy."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MKConstraint
from repro.core.chains import ChainValidationError, EventChain
from repro.core.dag import MAX_PATHS, path_chains
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
        budget_e2e={"d": 300},
        mk=MKConstraint(0, 1),
    )
    defaults.update(kwargs)
    return path_chains(**defaults)


#: The perception stack's fork/join: two lidar branches join at fusion,
#: pass through the transfer s2 and fork to the two classifier sinks.
STACK_EDGES = [
    ("s0_front", "s1_front"), ("s0_rear", "s1_rear"),
    ("s1_front", "s2"), ("s1_rear", "s2"),
    ("s2", "s3_objects"), ("s2", "s3_ground"),
]


def perception_dag(stack):
    """The stack's four chains as one DAG, with per-sink budgets."""
    return path_chains(
        name="perception",
        segments=list(stack.segments.values()),
        edges=STACK_EDGES,
        period=stack.config.period,
        budget_e2e={"s3_objects": msec(250), "s3_ground": msec(200)},
        mk=MKConstraint(3, 10),
    )


def path_names(chains):
    """Segment names per path, keyed by path id."""
    return {
        path_id: tuple(s.name for s in chain.segments)
        for path_id, chain in chains.items()
    }


class TestValidation:
    def test_duplicate_segment_rejected(self):
        segs = diamond_segments()
        with pytest.raises(ChainValidationError, match="duplicate segment"):
            diamond(segments=segs + [segs[0]])

    def test_empty_rejected(self):
        with pytest.raises(ChainValidationError, match=">= 1 segment"):
            diamond(segments=[], edges=[])

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
            diamond(segments=[x, y], edges=[("x", "y"), ("y", "x")],
                    budget_e2e={})

    def test_gap_rejected(self):
        segs = diamond_segments()
        # Break the stitch: d now starts at an unrelated event.
        segs[3].start = segs[0].start
        with pytest.raises(ChainValidationError, match="unmonitored gap"):
            diamond(segments=segs)

    def test_more_than_max_paths_rejected(self):
        # Nine stacked diamonds: 2 ** 9 = 512 root->sink paths.
        names, edges = ["j0"], []
        for i in range(9):
            names += [f"a{i}", f"b{i}", f"j{i + 1}"]
            edges += [(f"j{i}", f"a{i}"), (f"j{i}", f"b{i}"),
                      (f"a{i}", f"j{i + 1}"), (f"b{i}", f"j{i + 1}")]
        segments = {
            n: local_segment(n, "ecu", f"in_{n}", f"out_{n}") for n in names
        }
        for i in range(9):
            segments[f"b{i}"].end = segments[f"a{i}"].end
        for src, dst in edges:
            segments[dst].start = segments[src].end
        assert 2 ** 9 > MAX_PATHS
        with pytest.raises(ChainValidationError, match="root->sink paths"):
            diamond(segments=list(segments.values()), edges=edges,
                    budget_e2e={"j9": 300})

    def test_missing_sink_budget_rejected(self):
        with pytest.raises(ChainValidationError, match="no end-to-end budget"):
            diamond(budget_e2e={"not_d": 300})

    def test_budget_for_a_non_sink_rejected(self):
        # Every sink has its budget, but one key is misspelled: it must
        # not be dropped silently.
        with pytest.raises(ChainValidationError, match="name no sink"):
            diamond(budget_e2e={"d": 300, "d_typo": 100})

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ChainValidationError, match="positive"):
            diamond(budget_e2e={"d": 0})


class TestStructure:
    def test_roots_sinks_diamond(self):
        # Every path runs from the one root to the one sink.
        for chain in diamond().values():
            assert chain.segments[0].name == "a"
            assert chain.segments[-1].name == "d"

    def test_diamond_paths(self):
        assert path_names(diamond()) == {
            "a>b>d": ("a", "b", "d"),
            "a>c>d": ("a", "c", "d"),
        }

    def test_perception_dag_has_four_paths(self):
        stack = PerceptionStack(StackConfig(seed=1))
        chains = perception_dag(stack)
        assert list(chains) == [
            "s0_front>s1_front>s2>s3_objects",
            "s0_front>s1_front>s2>s3_ground",
            "s0_rear>s1_rear>s2>s3_objects",
            "s0_rear>s1_rear>s2>s3_ground",
        ]
        # Each path is one of the stack's chains, segment for segment.
        assert sorted(path_names(chains).values()) == sorted(
            tuple(s.name for s in chain.segments)
            for chain in stack.chains.values()
        )

    def test_path_by_id(self):
        chains = diamond()
        assert path_names(chains)["a>c>d"] == ("a", "c", "d")
        with pytest.raises(KeyError):
            chains["a>z>d"]

    def test_per_sink_budget_and_mk(self):
        stack = PerceptionStack(StackConfig(seed=1))
        budgets = {"s3_objects": msec(250), "s3_ground": msec(200)}
        for path_id, chain in perception_dag(stack).items():
            assert isinstance(chain, EventChain)
            assert chain.budget_e2e == budgets[chain.segments[-1].name]
            assert chain.mk == MKConstraint(3, 10)
            # B_seg is the period, as on the stack's own chains.
            assert chain.budget_seg == chain.period == stack.config.period
            assert chain.name == f"perception:{path_id}"

    def test_path_chains_keyed_by_id(self):
        assert set(diamond()) == {"a>b>d", "a>c>d"}


def from_linear(chain):
    """A linear chain as the degenerate single-path DAG."""
    names = [segment.name for segment in chain.segments]
    return path_chains(
        name=chain.name, segments=list(chain.segments),
        edges=list(zip(names, names[1:])), period=chain.period,
        budget_e2e={names[-1]: chain.budget_e2e}, mk=chain.mk,
    )


def round_trip(chain):
    """The chain back from its DAG's one path, under its own name."""
    (path_chain,) = from_linear(chain).values()
    return dataclasses.replace(path_chain, name=chain.name)


@st.composite
def linear_chains(draw):
    """A gap-free linear chain: local and remote segments, deadlines
    assigned or not, any budget and (m,k); ``B_seg`` is the period, the
    one a DAG's path chains carry."""
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
        mk=MKConstraint(draw(st.integers(min_value=0, max_value=k)), k),
    )


def assert_single_path(chain):
    ((path_id, path_chain),) = from_linear(chain).items()
    names = tuple(s.name for s in chain.segments)
    assert tuple(s.name for s in path_chain.segments) == names
    assert path_id == ">".join(names)


class TestLinearDegeneracy:
    """Linear chains are the degenerate DAG: one path, whose chain is
    the chain again (``path_chains`` names it ``dag:path``)."""

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
