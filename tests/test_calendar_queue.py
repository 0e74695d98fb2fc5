"""Hypothesis: calendar-queue pop order == heap pop order, always.

The kernel swapped its binary heap for the bucketed
:class:`~repro.sim.calendar.CalendarQueue` on the strength of one
invariant: entries are the same ``(time, priority, seq)`` tuples, so
pop order is the identical total order.  This module drives both the
calendar queue and the reference ``EagerHeapQueue`` through
arbitrary interleavings of schedule / cancel / rearm / pop /
pop-with-limit operations, generated under the kernel's monotonicity
contract (``push time >= last popped time``), and checks every pop
against a brute-force sorted-set oracle.

Buckets are ``1 << DEFAULT_SHIFT`` ns wide; time deltas are drawn well
past that so runs cross bucket boundaries, land inside the active
bucket (exercising the overflow heap), and pile up enough cancels to
trigger compaction sweeps.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from _reference.heap_kernel import CancelToken, EagerHeapQueue

from repro.sim.calendar import CalendarQueue, DEFAULT_SHIFT

BUCKET = 1 << DEFAULT_SHIFT

#: One symbolic operation per element; indices are taken modulo the
#: issued-timer count so every draw is valid whatever came before.
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(min_value=0, max_value=3 * BUCKET),
            st.integers(min_value=0, max_value=3),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=255)),
        st.tuples(
            st.just("rearm"),
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=0, max_value=3 * BUCKET),
            st.integers(min_value=0, max_value=3),
        ),
        st.tuples(st.just("pop")),
        st.tuples(
            st.just("pop_limit"),
            st.integers(min_value=0, max_value=2 * BUCKET),
        ),
    ),
    max_size=120,
)


class _Driver:
    """One logical timer population mirrored into both queues + oracle."""

    def __init__(self):
        self.cal = CalendarQueue()
        self.heap = EagerHeapQueue()
        self.live = {}  # seq -> (time, priority)
        self.tokens = {}  # seq -> (calendar token, heap token)
        self.issued = []
        self.now = 0
        self.seq = 0

    def push(self, dt, priority):
        time = self.now + dt
        pair = (CancelToken(), CancelToken())
        self.cal.push(time, priority, self.seq, pair[0])
        self.heap.push(time, priority, self.seq, pair[1])
        self.live[self.seq] = (time, priority)
        self.tokens[self.seq] = pair
        self.issued.append(self.seq)
        self.seq += 1

    def cancel(self, pick):
        if not self.issued:
            return
        seq = self.issued[pick % len(self.issued)]
        if seq in self.live:
            del self.live[seq]
        for token in self.tokens[seq]:
            token.cancel()  # idempotent on already-popped entries

    def _oracle_min(self):
        if not self.live:
            return None
        return min(
            (time, priority, seq)
            for seq, (time, priority) in self.live.items()
        )

    def pop(self, limit=None):
        expected = self._oracle_min()
        if expected is not None and limit is not None and expected[0] > limit:
            expected = None
        got_cal = self.cal.pop(limit)
        got_heap = self.heap.pop(limit)
        if expected is None:
            assert got_cal is None and got_heap is None
            return
        assert got_cal is not None and got_heap is not None
        assert got_cal[:3] == expected, "calendar diverged from oracle"
        assert got_heap[:3] == expected, "heap diverged from oracle"
        assert got_cal[3].data == got_heap[3].data
        del self.live[expected[2]]
        self.now = expected[0]  # kernel time never runs backwards

    def check_liveness_counters(self):
        assert self.cal.live == len(self.live)
        assert self.heap.live == len(self.live)
        assert bool(self.cal) == bool(self.live)
        assert bool(self.heap) == bool(self.live)


@given(OPS)
@settings(max_examples=120, deadline=None)
def test_pop_order_matches_heap_and_oracle(ops):
    driver = _Driver()
    for op in ops:
        kind = op[0]
        if kind == "push":
            driver.push(op[1], op[2])
        elif kind == "cancel":
            driver.cancel(op[1])
        elif kind == "rearm":
            driver.cancel(op[1])
            driver.push(op[2], op[3])
        elif kind == "pop":
            driver.pop()
        else:  # pop_limit
            driver.pop(limit=driver.now + op[1])
    driver.check_liveness_counters()
    # Full drain: the tail must come out globally sorted too.
    while driver.live:
        driver.pop()
    assert driver.cal.pop() is None
    assert driver.heap.pop() is None
    driver.check_liveness_counters()


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50 * BUCKET),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_bulk_drain_is_sorted(pairs):
    cal = CalendarQueue()
    expected = []
    for seq, (time, priority) in enumerate(pairs):
        cal.push(time, priority, seq, CancelToken())
        expected.append((time, priority, seq))
    expected.sort()
    drained = []
    while True:
        entry = cal.pop()
        if entry is None:
            break
        drained.append(entry[:3])
    assert drained == expected
