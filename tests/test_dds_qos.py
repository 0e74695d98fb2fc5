"""Unit tests for topic/sample plumbing."""

import numpy as np
import pytest

from repro.dds import Sample, Topic


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
