"""Unit tests for events, segments and chain validation."""

import pytest

from repro.budgeting.feasibility import feasibility_violations
from repro.core import EventChain, EventKind, EventPoint, MKConstraint, Segment, SegmentKind
from repro.core.chains import ChainValidationError
from repro.core.segments import local_segment, remote_segment
from repro.sim import msec


def sample_chain():
    """The paper's front-lidar chain: remote(front) -> local(fusion) ->
    remote(fused) -> local(classify+detect)."""
    s0 = remote_segment("s0_front", "points_front", "lidar_front", "ecu1")
    s1 = local_segment(
        "s1_fusion", "ecu1", "points_front", "points_fused", end_process=""
    )
    s2 = remote_segment("s2_fused", "points_fused", "ecu1", "ecu2")
    s3 = local_segment(
        "s3_perception", "ecu2", "points_fused", "objects",
        end_kind=EventKind.RECEIVE,
    )
    return [s0, s1, s2, s3]


def assigned_chain(d_mons, **bounds):
    """:func:`sample_chain` with its monitored deadlines assigned."""
    segments = sample_chain()
    for segment, d_mon in zip(segments, d_mons):
        segment.d_mon = d_mon
    return EventChain(
        name="front", segments=segments, period=msec(100), **bounds
    )


def checks(chain):
    """The labels (``"Eq.3"``, ...) of *chain*'s violated constraints."""
    return [v.split(":")[0] for v in feasibility_violations(chain)]


class TestEventPoint:
    def test_equality_is_gapfree_check(self):
        a = EventPoint("t", EventKind.PUBLICATION, "ecu1")
        b = EventPoint("t", EventKind.PUBLICATION, "ecu1")
        assert a == b

    def test_error_propagation_not_a_boundary(self):
        with pytest.raises(ValueError):
            EventPoint("t", EventKind.ERROR_PROPAGATION, "ecu1")

    def test_str(self):
        point = EventPoint("t", EventKind.RECEIVE, "ecu1", "fusion")
        assert str(point) == "receive(t)@ecu1:fusion"


class TestSegmentValidation:
    def test_local_segment_same_ecu_required(self):
        with pytest.raises(ValueError):
            Segment(
                name="bad",
                kind=SegmentKind.LOCAL,
                start=EventPoint("a", EventKind.RECEIVE, "ecu1"),
                end=EventPoint("b", EventKind.PUBLICATION, "ecu2"),
            )

    def test_local_segment_must_start_with_receive(self):
        with pytest.raises(ValueError):
            Segment(
                name="bad",
                kind=SegmentKind.LOCAL,
                start=EventPoint("a", EventKind.PUBLICATION, "ecu1"),
                end=EventPoint("b", EventKind.PUBLICATION, "ecu1"),
            )

    def test_remote_segment_must_cross_ecus(self):
        with pytest.raises(ValueError):
            remote_segment("bad", "t", "ecu1", "ecu1")

    def test_remote_segment_single_topic(self):
        with pytest.raises(ValueError):
            Segment(
                name="bad",
                kind=SegmentKind.REMOTE,
                start=EventPoint("a", EventKind.PUBLICATION, "ecu1"),
                end=EventPoint("b", EventKind.RECEIVE, "ecu2"),
            )

    def test_local_segment_may_end_with_receive(self):
        seg = local_segment("rviz", "ecu2", "points", "objects", end_kind=EventKind.RECEIVE)
        assert seg.end.kind is EventKind.RECEIVE

    def test_deadline_property(self):
        seg = remote_segment("s", "t", "a", "b", d_mon=msec(10), d_ex=msec(1))
        assert seg.deadline == msec(11)

    def test_deadline_none_until_assigned(self):
        seg = remote_segment("s", "t", "a", "b")
        assert seg.deadline is None

    def test_invalid_deadlines_rejected(self):
        with pytest.raises(ValueError):
            remote_segment("s", "t", "a", "b", d_mon=0)
        with pytest.raises(ValueError):
            remote_segment("s", "t", "a", "b", d_ex=-1)


class TestChainValidation:
    def test_valid_chain_constructs(self):
        chain = EventChain(
            name="front",
            segments=sample_chain(),
            period=msec(100),
            budget_e2e=msec(220),
            mk=MKConstraint(2, 10),
        )
        assert len(chain) == 4
        assert chain.budget_seg == msec(100)

    def test_gap_detected(self):
        segments = sample_chain()
        # Break contiguity: s2 now starts from a different topic.
        segments[2] = remote_segment("s2_fused", "points_other", "ecu1", "ecu2")
        with pytest.raises(ChainValidationError, match="unmonitored gap"):
            EventChain(
                name="front",
                segments=segments,
                period=msec(100),
                budget_e2e=msec(220),
            )

    def test_empty_chain_rejected(self):
        with pytest.raises(ChainValidationError):
            EventChain(name="x", segments=[], period=msec(100), budget_e2e=msec(100))

    def test_segment_lookup(self):
        chain = EventChain(
            name="front", segments=sample_chain(), period=msec(100), budget_e2e=msec(220)
        )
        assert chain.segment("s1_fusion").kind is SegmentKind.LOCAL
        with pytest.raises(KeyError):
            chain.segment("nope")

    def test_budget_check_enforces_eq1(self):
        chain = assigned_chain([msec(40)] * 4, budget_e2e=msec(100))
        assert chain.deadlines_assigned
        assert checks(chain) == ["Eq.3"]

    def test_budget_check_enforces_bseg(self):
        chain = assigned_chain(
            [msec(10), msec(60), msec(10), msec(10)],
            budget_e2e=msec(1000), budget_seg=msec(50),
        )
        assert checks(chain) == ["Eq.4"]

    def test_budget_check_passes_for_feasible_assignment(self):
        chain = assigned_chain(
            [msec(10), msec(80), msec(10), msec(90)], budget_e2e=msec(300)
        )
        assert checks(chain) == []
