"""Unit tests of the span recorder and its propagation through the
simulator, DDS, executors and monitors."""

import dataclasses

from repro.perception.stack import PerceptionStack, StackConfig
from repro.sim.kernel import Simulator
from repro.tracing.critical_path import validate_spans
from repro.tracing.spans import SpanRecorder


def recorder_on(sim: Simulator) -> SpanRecorder:
    recorder = SpanRecorder(sim)
    sim.spans = recorder
    return recorder


class TestRecorder:
    def test_begin_end_records_interval(self):
        sim = Simulator(seed=1)
        rec = recorder_on(sim)
        span = rec.begin("work", "compute")
        assert span.end is None and span.duration == 0
        sim.schedule_at(100, lambda: None)
        sim.run()
        rec.end(span)
        assert span.start == 0 and span.end == 100
        assert span.duration == 100
        assert rec.open_spans == 0

    def test_end_is_idempotent(self):
        sim = Simulator(seed=1)
        rec = recorder_on(sim)
        span = rec.begin("work", "compute")
        rec.end(span, end=5)
        rec.end(span, end=99)
        assert span.end == 5
        assert rec.open_spans == 0

    def test_explicit_none_parent_forces_new_trace(self):
        sim = Simulator(seed=1)
        rec = recorder_on(sim)
        root = rec.begin("root", "compute", parent=None)
        rec.current = root.context
        child = rec.begin("child", "compute")
        other = rec.begin("other", "compute", parent=None)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert other.trace_id != root.trace_id
        assert other.parent_id is None

    def test_instant_is_closed_at_its_timestamp(self):
        sim = Simulator(seed=1)
        rec = recorder_on(sim)
        mark = rec.instant("mark", "publish", ts=42)
        assert (mark.start, mark.end) == (42, 42)
        assert rec.open_spans == 0

    def test_links_record_extra_predecessors(self):
        sim = Simulator(seed=1)
        rec = recorder_on(sim)
        a = rec.begin("a", "compute", parent=None)
        b = rec.begin("b", "compute", parent=None)
        rec.current = b.context
        rec.link_current(a.context)
        assert b.links == [a.span_id]
        rec.link_current(None)  # no-op
        assert b.links == [a.span_id]


class TestKernelPropagation:
    def test_scheduled_event_carries_ambient_context(self):
        sim = Simulator(seed=1)
        rec = recorder_on(sim)
        seen = []

        def later():
            seen.append(rec.current)

        root = rec.begin("root", "compute", parent=None)
        rec.current = root.context
        sim.schedule_after(10, later)
        rec.current = None
        rec.end(root, end=0)
        sim.run()
        assert seen == [root.context]

    def test_event_scheduled_without_context_restores_none(self):
        sim = Simulator(seed=1)
        rec = recorder_on(sim)
        seen = []
        sim.schedule_after(10, lambda: seen.append(rec.current))
        sim.run()
        assert seen == [None]


class TestStackPropagation:
    def test_disabled_by_default(self):
        stack = PerceptionStack(StackConfig(seed=1))
        assert stack.spans is None
        assert stack.sim.spans is None

    def test_stack_run_produces_wellformed_spans(self):
        stack = PerceptionStack(StackConfig(seed=1, spans=True))
        stack.run(n_frames=6)
        assert len(stack.spans) > 0
        assert stack.spans.open_spans == 0
        assert validate_spans(stack.spans) == []

    def test_one_trace_per_lidar_activation(self):
        frames = 6
        stack = PerceptionStack(StackConfig(seed=1, spans=True))
        stack.run(n_frames=frames)
        traces = {span.trace_id for span in stack.spans.spans}
        # Two lidar timer callbacks per frame, each a fresh trace root.
        assert len(traces) == 2 * frames

    def test_transport_spans_parent_to_publications(self):
        stack = PerceptionStack(StackConfig(seed=1, spans=True))
        stack.run(n_frames=6)
        by_id = {s.span_id: s for s in stack.spans.spans}
        transports = [
            s for s in stack.spans.spans if s.name == "dds.transport"
        ]
        assert transports
        for span in transports:
            parent = by_id[span.parent_id]
            assert parent.name == "dds.publish"
            assert parent.attrs["topic"] == span.attrs["topic"]
            # Anchored at the publication instant.
            assert span.start == parent.start

    def test_fusion_join_links_partner_branch(self):
        stack = PerceptionStack(StackConfig(seed=1, spans=True))
        stack.run(n_frames=6)
        linked = [s for s in stack.spans.spans if s.links]
        # Every fused frame joins exactly one waiting partner.
        assert linked
        by_id = {s.span_id: s for s in stack.spans.spans}
        for span in linked:
            assert span.name == "ecu1.fusion.callback"
            for link in span.links:
                assert by_id[link].trace_id != span.trace_id

    def test_exception_spans_recorded_under_faults(self):
        stack = PerceptionStack(StackConfig(seed=7, link_loss=0.08, spans=True))
        stack.run(n_frames=12)
        categories = {s.category for s in stack.spans.spans}
        assert "exception" in categories
        assert validate_spans(stack.spans) == []

    def test_bit_identical_with_and_without_spans(self):
        from _golden import stack_fingerprint

        on = PerceptionStack(StackConfig(seed=7, link_loss=0.08, spans=True))
        on.run(n_frames=12)
        off = PerceptionStack(StackConfig(seed=7, link_loss=0.08))
        off.run(n_frames=12)
        assert stack_fingerprint(on) == stack_fingerprint(off)
