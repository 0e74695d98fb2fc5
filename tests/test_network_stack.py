"""Unit tests for the NIC/ksoftirq receive path."""

import pytest

from repro.network import Frame, Link, NetworkStack
from repro.sim import Compute, Ecu, Simulator, msec, sec, usec


def make_ecu(n_cores=2):
    sim = Simulator(seed=1)
    ecu = Ecu(sim, "ecu2", n_cores=n_cores)
    return sim, ecu


class TestDelivery:
    def test_frame_reaches_registered_handler(self):
        sim, ecu = make_ecu()
        stack = NetworkStack(ecu, per_frame_cost=usec(10), per_byte_cost=0)
        received = []
        stack.register_port("topic/points", lambda f: received.append((f.payload, sim.now)))
        frame = Frame(payload="pc", size_bytes=100, src="ecu1", dst="ecu2")
        sim.schedule_at(msec(1), stack.deliver, "topic/points", frame)
        sim.run(until=msec(2))
        assert received == [("pc", msec(1) + usec(10))]

    def test_per_byte_cost_applied(self):
        sim, ecu = make_ecu()
        stack = NetworkStack(ecu, per_frame_cost=0, per_byte_cost=1.0)
        received = []
        stack.register_port("p", lambda f: received.append(sim.now))
        frame = Frame(payload=None, size_bytes=500, src="a", dst="b")
        sim.schedule_at(msec(1), stack.deliver, "p", frame)
        sim.run(until=msec(2))
        assert received == [msec(1) + 500]

    def test_unregistered_port_frame_is_dropped_silently(self):
        sim, ecu = make_ecu()
        stack = NetworkStack(ecu)
        frame = Frame(payload=None, size_bytes=10, src="a", dst="b")
        sim.schedule_at(msec(1), stack.deliver, "nowhere", frame)
        sim.run(until=msec(2))
        assert stack.frames_processed == 1

    def test_duplicate_port_registration_rejected(self):
        sim, ecu = make_ecu()
        stack = NetworkStack(ecu)
        stack.register_port("p", lambda f: None)
        with pytest.raises(ValueError):
            stack.register_port("p", lambda f: None)


class TestScheduling:
    def test_ksoftirq_delayed_by_higher_priority_load(self):
        """With all cores occupied by higher-priority work, frame
        processing waits -- receive latency includes scheduling delay."""
        sim, ecu = make_ecu(n_cores=1)
        stack = NetworkStack(ecu, ksoftirq_priority=50, per_frame_cost=usec(10))
        received = []
        stack.register_port("p", lambda f: received.append(sim.now))

        def hog(_):
            yield Compute(msec(10))

        # Higher priority than ksoftirq: occupies the only core to 10ms.
        ecu.spawn("hog", hog, priority=60)
        frame = Frame(payload=None, size_bytes=0, src="a", dst="b")
        sim.schedule_at(msec(1), stack.deliver, "p", frame)
        sim.run(until=msec(20))
        assert received == [msec(10) + usec(10)]

    def test_ksoftirq_preempts_lower_priority_work(self):
        sim, ecu = make_ecu(n_cores=1)
        stack = NetworkStack(ecu, ksoftirq_priority=90, per_frame_cost=usec(10))
        received = []
        stack.register_port("p", lambda f: received.append(sim.now))

        def background(_):
            yield Compute(msec(10))

        ecu.spawn("bg", background, priority=10)
        frame = Frame(payload=None, size_bytes=0, src="a", dst="b")
        sim.schedule_at(msec(1), stack.deliver, "p", frame)
        sim.run(until=msec(20))
        assert received == [msec(1) + usec(10)]

    def test_frames_processed_in_arrival_order(self):
        sim, ecu = make_ecu()
        stack = NetworkStack(ecu, per_frame_cost=usec(5))
        order = []
        stack.register_port("p", lambda f: order.append(f.payload))
        for i in range(5):
            frame = Frame(payload=i, size_bytes=0, src="a", dst="b")
            sim.schedule_at(msec(1) + i, stack.deliver, "p", frame)
        sim.run(until=msec(5))
        assert order == [0, 1, 2, 3, 4]


class TestEndToEnd:
    def test_link_to_stack_pipeline(self):
        sim = Simulator(seed=3)
        ecu = Ecu(sim, "ecu2", n_cores=2)
        stack = NetworkStack(ecu, per_frame_cost=usec(20), per_byte_cost=0)
        link = Link(sim, "eth", base_latency=usec(100), bandwidth_bps=1e9)
        received = []
        stack.register_port("points", lambda f: received.append(sim.now))
        frame = Frame(payload="x", size_bytes=1250, src="ecu1", dst="ecu2")
        link.transmit(frame, lambda f: stack.deliver("points", f))
        sim.run(until=msec(1))
        # 10us serialization + 100us link + 20us ksoftirq processing.
        assert received == [usec(130)]
