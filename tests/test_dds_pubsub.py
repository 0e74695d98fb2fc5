"""Integration tests for the DDS publish/subscribe paths."""

import pytest

from repro.dds import DdsDomain, ReaderListener, Topic
from repro.dds.reader import HISTORY_DEPTH
from repro.network import JitterModel, Link, NetworkStack
from repro.sim import Ecu, Simulator, msec, usec


class Collector(ReaderListener):
    def __init__(self, sim):
        self.sim = sim
        self.samples = []

    def on_data_available(self, reader, sample):
        self.samples.append((sample.data, self.sim.now))


def two_ecu_domain(seed=1, loss=0.0, base_latency=usec(200)):
    sim = Simulator(seed=seed)
    ecu1 = Ecu(sim, "ecu1", n_cores=2)
    ecu2 = Ecu(sim, "ecu2", n_cores=2)
    domain = DdsDomain(sim, local_latency=usec(20))
    stack1 = NetworkStack(ecu1, per_frame_cost=usec(10), per_byte_cost=0)
    stack2 = NetworkStack(ecu2, per_frame_cost=usec(10), per_byte_cost=0)
    domain.register_stack(ecu1, stack1)
    domain.register_stack(ecu2, stack2)
    link12 = Link(sim, "e1->e2", base_latency=base_latency, loss_prob=loss, bandwidth_bps=1e12)
    link21 = Link(sim, "e2->e1", base_latency=base_latency, loss_prob=loss, bandwidth_bps=1e12)
    domain.add_link(ecu1, ecu2, link12)
    domain.add_link(ecu2, ecu1, link21)
    return sim, ecu1, ecu2, domain


class TestLocalDelivery:
    def test_same_ecu_delivery_uses_loopback_latency(self):
        sim = Simulator()
        ecu = Ecu(sim, "ecu1")
        domain = DdsDomain(sim, local_latency=usec(30))
        pub_part = domain.create_participant(ecu, "pub")
        sub_part = domain.create_participant(ecu, "sub")
        topic = Topic("chatter")
        collector = Collector(sim)
        sub_part.create_reader(topic, listener=collector)
        writer = pub_part.create_writer(topic)
        sim.schedule_at(msec(1), writer.write, "hello")
        sim.run(until=msec(2))
        assert collector.samples == [("hello", msec(1) + usec(30))]

    def test_multiple_readers_all_receive(self):
        sim = Simulator()
        ecu = Ecu(sim, "ecu1")
        domain = DdsDomain(sim)
        part = domain.create_participant(ecu, "p")
        topic = Topic("t")
        collectors = [Collector(sim) for _ in range(3)]
        for collector in collectors:
            part.create_reader(topic, listener=collector)
        writer = part.create_writer(topic)
        sim.schedule_at(msec(1), writer.write, 42)
        sim.run(until=msec(2))
        assert all(c.samples and c.samples[0][0] == 42 for c in collectors)

    def test_source_timestamp_defaults_to_local_clock(self):
        sim = Simulator()
        ecu = Ecu(sim, "ecu1")
        domain = DdsDomain(sim)
        part = domain.create_participant(ecu, "p")
        topic = Topic("t")
        received = []

        class L(ReaderListener):
            def on_data_available(self, reader, sample):
                received.append(sample.source_timestamp)

        part.create_reader(topic, listener=L())
        writer = part.create_writer(topic)
        sim.schedule_at(msec(5), writer.write, "x")
        sim.run(until=msec(6))
        assert received == [msec(5)]


class TestRemoteDelivery:
    def test_cross_ecu_delivery_goes_through_link_and_ksoftirq(self):
        sim, ecu1, ecu2, domain = two_ecu_domain()
        part1 = domain.create_participant(ecu1, "pub")
        part2 = domain.create_participant(ecu2, "sub")
        topic = Topic("points", size_fn=lambda d: 0)
        collector = Collector(sim)
        part2.create_reader(topic, listener=collector)
        writer = part1.create_writer(topic)
        sim.schedule_at(msec(1), writer.write, "cloud")
        sim.run(until=msec(2))
        assert len(collector.samples) == 1
        data, arrival = collector.samples[0]
        assert data == "cloud"
        # link 200us + ksoftirq 10us (framing bytes excluded by size_fn=0
        # except RTPS overhead -> serialization at 1e12 bps is negligible).
        assert arrival >= msec(1) + usec(210)
        assert arrival <= msec(1) + usec(230)

    def test_missing_link_raises(self):
        sim = Simulator()
        ecu1 = Ecu(sim, "ecu1")
        ecu2 = Ecu(sim, "ecu2")
        domain = DdsDomain(sim)
        NetworkStack(ecu2)
        domain.register_stack(ecu2, NetworkStack(ecu2))
        part1 = domain.create_participant(ecu1, "pub")
        part2 = domain.create_participant(ecu2, "sub")
        topic = Topic("t")
        part2.create_reader(topic)
        writer = part1.create_writer(topic)
        with pytest.raises(RuntimeError):
            writer.write("x")

    def test_best_effort_loses_samples_on_lossy_link(self):
        sim, ecu1, ecu2, domain = two_ecu_domain(seed=3, loss=0.4)
        part1 = domain.create_participant(ecu1, "pub")
        part2 = domain.create_participant(ecu2, "sub")
        topic = Topic("t", size_fn=lambda d: 100)
        collector = Collector(sim)
        part2.create_reader(topic, listener=collector)
        writer = part1.create_writer(topic)
        for i in range(100):
            sim.schedule_at(msec(1 + i), writer.write, i)
        sim.run(until=msec(200))
        assert 30 < len(collector.samples) < 90
        # Best-effort: every lost frame is dropped once, none is retried.
        assert len(collector.samples) + domain.frames_dropped == 100


class TestWriterInstrumentation:
    def test_publish_filter_suppresses(self):
        sim = Simulator()
        ecu = Ecu(sim, "ecu1")
        domain = DdsDomain(sim)
        part = domain.create_participant(ecu, "p")
        topic = Topic("t")
        collector = Collector(sim)
        part.create_reader(topic, listener=collector)
        writer = part.create_writer(topic)
        skip_next = [True]

        def skip_filter(sample):
            if skip_next[0]:
                skip_next[0] = False
                return False
            return True

        writer.publish_filters.append(skip_filter)
        sim.schedule_at(msec(1), writer.write, "skipped")
        sim.schedule_at(msec(2), writer.write, "delivered")
        sim.run(until=msec(3))
        assert [d for d, _ in collector.samples] == ["delivered"]
        assert writer.suppressed == 1
        assert writer.published == 1

    def test_publish_hook_sees_actual_publications_only(self):
        sim = Simulator()
        ecu = Ecu(sim, "ecu1")
        domain = DdsDomain(sim)
        part = domain.create_participant(ecu, "p")
        writer = part.create_writer(Topic("t"))
        seen = []
        writer.publish_filters.append(lambda s: s.data != "blocked")
        writer.on_publish_hooks.append(lambda s: seen.append(s.data))
        writer.write("blocked")
        writer.write("ok")
        assert seen == ["ok"]

    def test_sequence_numbers_monotonic(self):
        sim = Simulator()
        ecu = Ecu(sim, "ecu1")
        domain = DdsDomain(sim)
        part = domain.create_participant(ecu, "p")
        writer = part.create_writer(Topic("t"))
        samples = [writer.write(i) for i in range(5)]
        assert [s.sequence_number for s in samples] == [0, 1, 2, 3, 4]


class TestReaderInstrumentation:
    def test_receive_filter_discards(self):
        sim = Simulator()
        ecu = Ecu(sim, "ecu1")
        domain = DdsDomain(sim, local_latency=usec(1))
        part = domain.create_participant(ecu, "p")
        topic = Topic("t")
        collector = Collector(sim)
        reader = part.create_reader(topic, listener=collector)
        reader.receive_filters.append(lambda s: s.data % 2 == 0)
        writer = part.create_writer(topic)
        for i in range(6):
            sim.schedule_at(msec(1 + i), writer.write, i)
        sim.run(until=msec(10))
        assert [d for d, _ in collector.samples] == [0, 2, 4]
        assert reader.filtered == 3

    def test_issue_receive_injects_recovered_sample(self):
        sim = Simulator()
        ecu = Ecu(sim, "ecu1")
        domain = DdsDomain(sim)
        part = domain.create_participant(ecu, "p")
        topic = Topic("t")
        collector = Collector(sim)
        reader = part.create_reader(topic, listener=collector)
        from repro.dds import Sample

        sample = Sample(
            topic=topic,
            data="substitute",
            source_timestamp=0,
            sequence_number=0,
            recovered=True,
        )
        reader.issue_receive(sample)
        assert collector.samples == [("substitute", 0)]

    def test_keep_last_history_bounded(self):
        sim = Simulator()
        ecu = Ecu(sim, "ecu1")
        domain = DdsDomain(sim, local_latency=usec(1))
        part = domain.create_participant(ecu, "p")
        topic = Topic("t")
        reader = part.create_reader(topic)
        writer = part.create_writer(topic)
        n = HISTORY_DEPTH + 5
        for i in range(n):
            sim.schedule_at(msec(1 + i), writer.write, i)
        sim.run(until=msec(n + 10))
        assert [s.data for s in reader.history] == list(range(5, n))

    def test_take_pops_fifo(self):
        sim = Simulator()
        ecu = Ecu(sim, "ecu1")
        domain = DdsDomain(sim, local_latency=usec(1))
        part = domain.create_participant(ecu, "p")
        topic = Topic("t")
        reader = part.create_reader(topic)
        writer = part.create_writer(topic)
        for i in range(3):
            sim.schedule_at(msec(1 + i), writer.write, i)
        sim.run(until=msec(10))
        assert reader.take().data == 0
        assert reader.take().data == 1
        assert reader.take().data == 2
        assert reader.take() is None
