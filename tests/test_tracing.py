"""Unit tests for the tracer and trace-based latency reconstruction."""

import pytest

from _harness import Message, PipelineWorld

from repro.core import EventKind, EventPoint
from repro.perception import PerceptionStack, StackConfig
from repro.perception.stack import SEGMENT_NAMES
from repro.sim import Simulator, msec
from repro.tracing import Tracer, endpoint_events, segment_latencies_from_trace


class TestTracer:
    def test_records_events(self):
        sim = Simulator()
        tracer = Tracer(sim)
        sim.schedule_at(msec(1), lambda: sim.emit_trace("x.y", a=1))
        sim.run()
        events = tracer.events("x.y")
        assert len(events) == 1
        assert events[0].timestamp == msec(1)
        assert events[0].fields == {"a": 1}

    def test_prefix_filter(self):
        sim = Simulator()
        tracer = Tracer(sim, prefixes=("dds.",))
        sim.emit_trace("dds.publish", topic="t")
        sim.emit_trace("monitor.start_event", segment="s")
        assert tracer.count("dds.publish") == 1
        assert tracer.count("monitor.start_event") == 0

    def test_no_prefixes_records_everything(self):
        sim = Simulator()
        tracer = Tracer(sim, prefixes=None)
        sim.emit_trace("dds.publish", topic="t")
        sim.emit_trace("anything.else")
        assert sim.tracing_active
        assert tracer.names() == ["anything.else", "dds.publish"]
        assert tracer.recorded == 2

    @pytest.mark.parametrize("empty", [(), []])
    def test_empty_prefixes_record_nothing_and_register_no_hook(self, empty):
        sim = Simulator()
        tracer = Tracer(sim, prefixes=empty)
        assert not sim.tracing_active
        sim.emit_trace("dds.publish", topic="t")
        assert tracer.names() == []
        assert tracer.recorded == 0

    def test_empty_prefix_tracer_costs_a_stack_run_nothing(self, monkeypatch):
        """``trace_prefixes=()`` is what the benches pass: no hook, so
        no emitter on the frame path even builds its fields."""
        stack = PerceptionStack(StackConfig(seed=2, trace_prefixes=()))
        assert not stack.sim.tracing_active

        # Recorded, not raised: the executors isolate callback errors.
        emitted = []
        monkeypatch.setattr(
            stack.sim, "emit_trace", lambda name, **fields: emitted.append(name)
        )
        stack.run(n_frames=4)
        assert emitted == []
        assert stack.tracer.recorded == 0
        assert stack.tracer.names() == []
        assert sum(len(stack.monitored_latencies(n)) for n in SEGMENT_NAMES) > 0

    def test_select_by_fields(self):
        sim = Simulator()
        tracer = Tracer(sim)
        sim.emit_trace("e", topic="a", n=1)
        sim.emit_trace("e", topic="b", n=2)
        assert len(tracer.select("e", topic="a")) == 1

    def test_clear(self):
        sim = Simulator()
        tracer = Tracer(sim)
        sim.emit_trace("e")
        tracer.clear()
        assert tracer.events("e") == []
        assert tracer.recorded == 1


class TestLatencyReconstruction:
    def test_segment_latency_from_pipeline_trace(self):
        world = PipelineWorld(worker_time=lambda i: msec(5), d_mon=msec(50))
        tracer = Tracer(world.sim, prefixes=("dds.",))
        world.publish_frames(5)
        world.run(until=msec(800))
        latencies = segment_latencies_from_trace(tracer, world.segment)
        assert len(latencies) == 5
        for latency in latencies:
            assert msec(5) <= latency <= msec(6)

    def test_endpoint_events_filter_by_process(self):
        world = PipelineWorld(worker_time=lambda i: msec(1))
        tracer = Tracer(world.sim, prefixes=("dds.",))
        world.publish_frames(3)
        world.run(until=msec(500))
        point = EventPoint("a", EventKind.RECEIVE, "ecu1", "worker")
        events = endpoint_events(tracer, point)
        assert len(events) == 3
        # A different process on the same ECU sees nothing.
        other = EventPoint("a", EventKind.RECEIVE, "ecu1", "sink")
        assert endpoint_events(tracer, other) == []

    def test_publication_events_matched_by_writer(self):
        world = PipelineWorld(worker_time=lambda i: msec(1))
        tracer = Tracer(world.sim, prefixes=("dds.",))
        world.publish_frames(4)
        world.run(until=msec(600))
        point = EventPoint("b", EventKind.PUBLICATION, "ecu1", "worker")
        assert len(endpoint_events(tracer, point)) == 4
