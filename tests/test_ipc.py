"""Tests for the real shared-memory monitor (ring buffer, semaphore,
monitor thread) -- including property-based ring-buffer invariants and a
cross-process smoke test."""

import multiprocessing
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipc import (
    EventRecord,
    IpcMonitor,
    IpcSegment,
    RECORD_SIZE,
    SharedMemoryRegion,
    SpscRingBuffer,
    TimedSemaphore,
)
from repro.ipc.ring_buffer import KIND_END, KIND_START


def make_buffer(capacity=16):
    return SpscRingBuffer(
        bytearray(SpscRingBuffer.required_size(capacity)), capacity, initialize=True
    )


class TestRingBuffer:
    def test_push_pop_roundtrip(self):
        buf = make_buffer()
        assert buf.push(KIND_START, 7, 123456789)
        record = buf.pop()
        assert record == EventRecord(KIND_START, 7, 123456789)
        assert buf.pop() is None

    def test_fifo_order(self):
        buf = make_buffer()
        for i in range(10):
            buf.push(KIND_END, i, i * 100)
        assert [r.activation for r in buf.drain()] == list(range(10))

    def test_full_rejects(self):
        buf = make_buffer(capacity=2)
        assert buf.push(KIND_START, 0, 0)
        assert buf.push(KIND_START, 1, 0)
        assert not buf.push(KIND_START, 2, 0)
        buf.pop()
        assert buf.push(KIND_START, 2, 0)

    def test_wraparound(self):
        buf = make_buffer(capacity=4)
        for round_start in range(0, 40, 4):
            for i in range(4):
                assert buf.push(KIND_START, round_start + i, 0)
            popped = [r.activation for r in buf.drain()]
            assert popped == list(range(round_start, round_start + 4))

    def test_len(self):
        buf = make_buffer()
        assert len(buf) == 0
        buf.push(KIND_START, 0, 0)
        buf.push(KIND_START, 1, 0)
        assert len(buf) == 2
        buf.pop()
        assert len(buf) == 1

    def test_too_small_buffer_rejected(self):
        with pytest.raises(ValueError):
            SpscRingBuffer(bytearray(10), 16)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SpscRingBuffer(bytearray(1000), 0)

    def test_required_size(self):
        assert SpscRingBuffer.required_size(4) == 16 + 4 * RECORD_SIZE

    @given(st.lists(st.tuples(
        st.sampled_from([KIND_START, KIND_END]),
        st.integers(min_value=0, max_value=2**60),
        st.integers(min_value=0, max_value=2**60),
    ), max_size=64))
    @settings(max_examples=100)
    def test_fifo_property(self, records):
        buf = make_buffer(capacity=64)
        accepted = []
        for kind, activation, ts in records:
            if buf.push(kind, activation, ts):
                accepted.append(EventRecord(kind, activation, ts))
        assert buf.drain() == accepted

    @given(st.lists(st.booleans(), max_size=200))
    @settings(max_examples=60)
    def test_interleaved_push_pop_property(self, ops):
        """Random interleaving of pushes and pops preserves FIFO."""
        buf = make_buffer(capacity=8)
        pushed = []
        popped = []
        counter = 0
        for is_push in ops:
            if is_push:
                if buf.push(KIND_START, counter, counter):
                    pushed.append(counter)
                counter += 1
            else:
                record = buf.pop()
                if record is not None:
                    popped.append(record.activation)
        popped.extend(r.activation for r in buf.drain())
        assert popped == pushed


class TestTimedSemaphore:
    def test_post_then_wait(self):
        sem = TimedSemaphore()
        sem.post()
        assert sem.wait(timeout_s=0.1)

    def test_timeout(self):
        sem = TimedSemaphore()
        t0 = time.monotonic()
        assert not sem.wait(timeout_s=0.05)
        assert time.monotonic() - t0 >= 0.04

    def test_initial_count(self):
        sem = TimedSemaphore()
        sem.post()
        sem.post()
        assert sem.wait(timeout_s=0)
        assert sem.wait(timeout_s=0)
        assert not sem.wait(timeout_s=0)


class TestSharedMemoryRegion:
    def test_create_write_attach_read(self):
        with SharedMemoryRegion(None, size=256, create=True) as region:
            region.buf[0:4] = b"abcd"
            attached = SharedMemoryRegion(region.name, create=False)
            assert bytes(attached.buf[0:4]) == b"abcd"
            attached.close()

    def test_create_requires_size(self):
        with pytest.raises(ValueError):
            SharedMemoryRegion(None, create=True)

    def test_attach_requires_name(self):
        with pytest.raises(ValueError):
            SharedMemoryRegion(None, create=False)

    def test_ring_buffer_over_shared_memory(self):
        capacity = 8
        size = SpscRingBuffer.required_size(capacity)
        with SharedMemoryRegion(None, size=size, create=True) as region:
            producer_view = SpscRingBuffer(region.buf, capacity, initialize=True)
            consumer_view = SpscRingBuffer(region.buf, capacity)
            producer_view.push(KIND_START, 5, 999)
            record = consumer_view.pop()
            assert record.activation == 5
            # Release memoryviews before the region is closed.
            del producer_view, consumer_view


def _segment(name="seg", deadline_ms=50, capacity=256):
    return IpcSegment(
        name,
        int(deadline_ms * 1e6),
        make_buffer(capacity),
        make_buffer(capacity),
    )


class TestIpcMonitor:
    def test_completion_within_deadline_no_exception(self):
        segment = _segment(deadline_ms=100)
        exceptions = []
        monitor = IpcMonitor([segment], on_exception=lambda *a: exceptions.append(a))
        with monitor:
            for i in range(20):
                segment.post_start(i, monitor.semaphore)
                segment.post_end(i)
            time.sleep(0.1)
        assert exceptions == []
        assert monitor.stats.completions == 20

    def test_missing_end_event_raises_exception(self):
        segment = _segment(deadline_ms=20)
        exceptions = []
        monitor = IpcMonitor([segment], on_exception=lambda *a: exceptions.append(a))
        with monitor:
            segment.post_start(0, monitor.semaphore)
            time.sleep(0.15)
        assert len(exceptions) == 1
        name, activation, late_ns = exceptions[0]
        assert name == "seg"
        assert activation == 0
        # Raised after the deadline, within a loose scheduling bound.
        assert 0 <= late_ns < 100_000_000

    def test_mixed_outcomes(self):
        segment = _segment(deadline_ms=30)
        exceptions = []
        monitor = IpcMonitor([segment], on_exception=lambda *a: exceptions.append(a))
        with monitor:
            segment.post_start(0, monitor.semaphore)
            segment.post_end(0)
            segment.post_start(1, monitor.semaphore)  # never completed
            segment.post_start(2, monitor.semaphore)
            segment.post_end(2)
            time.sleep(0.2)
        assert [a for _n, a, _l in exceptions] == [1]
        assert monitor.stats.completions == 2

    def test_two_segments_fixed_order(self):
        seg_a = _segment("a", deadline_ms=20)
        seg_b = _segment("b", deadline_ms=20)
        raised = []
        monitor = IpcMonitor(
            [seg_a, seg_b], on_exception=lambda n, a, l: raised.append(n)
        )
        with monitor:
            seg_a.post_start(0, monitor.semaphore)
            seg_b.post_start(0, monitor.semaphore)
            time.sleep(0.15)
        assert sorted(raised) == ["a", "b"]

    def test_double_start_rejected(self):
        monitor = IpcMonitor([_segment()])
        monitor.start()
        try:
            with pytest.raises(RuntimeError):
                monitor.start()
        finally:
            monitor.stop()

    def test_invalid_deadline(self):
        with pytest.raises(ValueError):
            IpcSegment("x", 0, make_buffer(), make_buffer())


def _producer_proc(shm_name, capacity, n_events):
    region = SharedMemoryRegion(shm_name, create=False)
    buf = SpscRingBuffer(region.buf, capacity)
    for i in range(n_events):
        buf.push(KIND_START, i, time.monotonic_ns())
        time.sleep(0.001)
    del buf
    region.close()


class TestCrossProcess:
    def test_producer_process_feeds_ring_buffer(self):
        capacity = 512
        size = SpscRingBuffer.required_size(capacity)
        with SharedMemoryRegion(None, size=size, create=True) as region:
            SpscRingBuffer(region.buf, capacity, initialize=True)
            proc = multiprocessing.Process(
                target=_producer_proc, args=(region.name, capacity, 50)
            )
            proc.start()
            proc.join(timeout=30)
            assert proc.exitcode == 0
            consumer = SpscRingBuffer(region.buf, capacity)
            records = consumer.drain()
            assert [r.activation for r in records] == list(range(50))
            del consumer
