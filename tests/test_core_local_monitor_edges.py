"""Edge cases of the local monitoring machinery."""

import pytest

from _harness import Message, PipelineWorld, activation_of

from repro.core import MKConstraint, Outcome, SkipGate
from repro.core.local_monitor import MonitorCosts
from repro.dds.topic import Sample, Topic
from repro.tracing.spans import SpanRecorder


class TestSkipGateCounterMode:
    def sample(self, data="x", recovered=False):
        return Sample(
            topic=Topic("t"), data=data, source_timestamp=0,
            sequence_number=0, recovered=recovered,
        )

    def test_counter_mode_without_activation_fn(self):
        gate = SkipGate(activation_fn=None)
        gate.add(None)
        assert gate._filter(self.sample()) is False
        assert gate._filter(self.sample()) is True
        assert gate.suppressed == 1

    def test_activation_mode_skips_exact_frame(self):
        gate = SkipGate(activation_fn=lambda s: s.data.frame_index)
        gate.add(5)
        ok = self.sample(data=Message(frame_index=4))
        late = self.sample(data=Message(frame_index=5))
        assert gate._filter(ok) is True
        assert gate._filter(late) is False
        # Idempotent: frame 5 only suppressed once.
        assert gate._filter(self.sample(data=Message(frame_index=5))) is True

    def test_recovered_samples_never_suppressed(self):
        gate = SkipGate(activation_fn=None)
        gate.add(None)
        assert gate._filter(self.sample(recovered=True)) is True
        # The pending suppression still applies to the next real sample.
        assert gate._filter(self.sample()) is False

    def test_duplicate_install_is_noop(self):
        from repro.sim import Ecu, Simulator
        from repro.dds import DdsDomain

        sim = Simulator()
        ecu = Ecu(sim, "e")
        domain = DdsDomain(sim)
        part = domain.create_participant(ecu, "p")
        writer = part.create_writer(Topic("t"))
        gate = SkipGate()
        gate.install_writer(writer)
        gate.install_writer(writer)
        assert len(writer.publish_filters) == 1


class TestBufferOverflow:
    def test_tiny_start_buffer_counts_overflows(self):
        """With capacity 1 and no monitor processing (all cores hogged),
        overflows are counted rather than corrupting state."""
        from repro.sim import Compute, msec

        world = PipelineWorld(worker_time=lambda i: msec(1), d_mon=msec(50))
        # Replace buffers with tiny ones.
        from repro.core.local_monitor import EventRingBuffer

        world.runtime.start_buffer = EventRingBuffer(capacity=1)
        world.sim.spans = SpanRecorder(world.sim)
        # Hog every core at a priority above the monitor so it can never
        # drain the buffer.
        for i in range(len(world.ecu.scheduler.cores)):
            world.ecu.spawn(f"hog{i}", lambda _: iter([Compute(msec(10_000))]),
                            priority=100)
        world.publish_frames(5)
        world.run(until=msec(600))
        assert world.runtime.start_buffer.overflows >= 3
        # Once the hogs are gone the one buffered start is armed (and
        # expires), and one more frame wakes the monitor to find the
        # end events of the dropped starts stale.  A dropped start must
        # not have left a span context behind: nothing would ever
        # consume it.
        world.sim.schedule_at(
            msec(10_500), lambda: world.pub_a.publish(Message(frame_index=5))
        )
        world.run(until=msec(11_000))
        assert world.runtime.stale_end_events >= 3
        assert world.runtime.pending == {}
        assert world.runtime._span_ctx == {}


class TestMonitorCosts:
    def test_zero_costs_allowed(self):
        from repro.sim import msec

        world = PipelineWorld(worker_time=lambda i: msec(30), d_mon=msec(10))
        world.monitor.costs = MonitorCosts(
            start_event=0, end_event=0, exception_detect=0, remote_entry=0
        )
        world.runtime.handler.cost_ns = 0
        world.publish_frames(3)
        world.run(until=msec(500))
        # Exceptions still raised, with zero-overhead detection.
        assert len(world.runtime.exceptions) == 3
        for exc in world.runtime.exceptions:
            assert exc.detection_latency == 0


class TestMonitorLatencySamples:
    def test_monitor_latency_recorded_per_start_event(self):
        from repro.sim import msec

        world = PipelineWorld(worker_time=lambda i: msec(1), d_mon=msec(50))
        world.publish_frames(6)
        world.run(until=msec(800))
        assert len(world.runtime.monitor_latency_samples) == 6
        assert all(v >= 0 for v in world.runtime.monitor_latency_samples)
