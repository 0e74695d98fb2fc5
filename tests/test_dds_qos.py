"""Unit tests for QoS profiles and topic/sample plumbing."""

import numpy as np
import pytest

from repro.dds import QosProfile, ReliabilityKind, Sample, Topic
from repro.dds.qos import HistoryKind
from repro.sim import msec


class TestQosProfile:
    def test_defaults(self):
        qos = QosProfile()
        assert qos.reliability is ReliabilityKind.BEST_EFFORT
        assert qos.history is HistoryKind.KEEP_LAST

    def test_reliable_reader_rejects_best_effort_writer(self):
        reader_qos = QosProfile(reliability=ReliabilityKind.RELIABLE)
        writer_qos = QosProfile(reliability=ReliabilityKind.BEST_EFFORT)
        assert not reader_qos.compatible_with(writer_qos)

    def test_best_effort_reader_accepts_reliable_writer(self):
        reader_qos = QosProfile(reliability=ReliabilityKind.BEST_EFFORT)
        writer_qos = QosProfile(reliability=ReliabilityKind.RELIABLE)
        assert reader_qos.compatible_with(writer_qos)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"history_depth": 0},
            {"max_retransmits": -1},
            {"retransmit_delay": -1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QosProfile(**kwargs)

    def test_profile_is_frozen(self):
        qos = QosProfile()
        with pytest.raises(AttributeError):
            qos.history_depth = 5


class TestTopic:
    def test_default_size_for_bytes(self):
        topic = Topic("t")
        assert topic.serialized_size(b"12345") == 5 + 64

    def test_default_size_for_numpy(self):
        topic = Topic("t")
        data = np.zeros((100, 4), dtype=np.float32)
        assert topic.serialized_size(data) == 1600 + 64

    def test_custom_size_fn(self):
        topic = Topic("t", size_fn=lambda data: 42)
        assert topic.serialized_size("anything") == 42

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Topic("")


class TestSample:
    def test_size_delegates_to_topic(self):
        topic = Topic("t", size_fn=lambda data: 1000)
        sample = Sample(topic=topic, data=None, source_timestamp=0, sequence_number=0)
        assert sample.size_bytes == 1000

    def test_uids_are_unique(self):
        topic = Topic("t")
        a = Sample(topic=topic, data=None, source_timestamp=0, sequence_number=0)
        b = Sample(topic=topic, data=None, source_timestamp=0, sequence_number=1)
        assert a.uid != b.uid
