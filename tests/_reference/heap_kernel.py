"""The binary-heap simulator kernel shipped until PR 14.

``repro.sim.kernel.Simulator`` drains a bucketed ``CalendarQueue``;
this is the lazy-cancel ``heapq`` drain loop it replaced, moved here
verbatim as a ``Simulator`` subclass so everything that is not the
event queue (time helpers, RNG streams, entity ids, trace hooks) is
shared with production.  Both pop in identical ``(time, priority,
seq)`` order and consume one sequence number per schedule/reschedule,
so traces are bit-identical; ``tests/_differential.py`` substitutes
:class:`HeapSimulator` at the three construction sites and
``tests/test_differential_engines.py`` asserts the identity.

:class:`EagerHeapQueue` is the heap-backed twin of ``CalendarQueue``
(same eager-cancel accounting over a plain heap) and :class:`CancelToken`
the smallest payload either takes; ``tests/test_calendar_queue.py``
drives both queues with it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.calendar import _MIN_COMPACT, Entry
from repro.sim.kernel import (
    ScheduledEvent,
    SimulationError,
    Simulator,
    fmt_time,
)

#: Heap entry layout: ``(time, priority, seq, event)``.  ``seq`` is unique,
#: so tuple comparison never reaches the (incomparable) event object.
_HeapEntry = Tuple[int, int, int, ScheduledEvent]


class HeapSimulator(Simulator):
    """``Simulator`` on the original lazy-cancel binary heap."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        #: Production's queue must never be touched on this path.
        self._cal = None
        self._heap: List[_HeapEntry] = []

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {fmt_time(time)}, "
                f"now is {fmt_time(self.now)}"
            )
        event = ScheduledEvent(callback, args, time, label=label)
        if self.spans is not None:
            event.ctx = self.spans.current
        heapq.heappush(self._heap, (time, priority, self._next_seq(), event))
        return event

    def schedule_after(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> ScheduledEvent:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        event = ScheduledEvent(callback, args, time, label=label)
        if self.spans is not None:
            event.ctx = self.spans.current
        heapq.heappush(self._heap, (time, priority, self._next_seq(), event))
        return event

    def call_now(
        self, callback: Callable[..., None], *args: Any, label: str = ""
    ) -> ScheduledEvent:
        event = ScheduledEvent(callback, args, self.now, label=label)
        if self.spans is not None:
            event.ctx = self.spans.current
        heapq.heappush(self._heap, (self.now, 0, self._next_seq(), event))
        return event

    def reschedule(
        self, event: ScheduledEvent, time: int, priority: int = 0
    ) -> ScheduledEvent:
        """Lazy-cancel + fresh handle: the pre-calendar rearm pattern."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {fmt_time(time)}, "
                f"now is {fmt_time(self.now)}"
            )
        event.cancel()
        fresh = ScheduledEvent(
            event.callback, event.args, time, label=event.label
        )
        if self.spans is not None:
            fresh.ctx = self.spans.current
        heapq.heappush(
            self._heap, (time, priority, self._next_seq(), fresh)
        )
        return fresh

    def step(self) -> bool:
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            _time, _prio, _seq, event = heappop(heap)
            if event.cancelled:
                continue
            self.now = event.time
            spans = self.spans
            if spans is not None:
                spans.current = event.ctx
            event.callback(*event.args)
            return True
        return False

    def run(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        count = 0
        heap = self._heap
        heappop = heapq.heappop
        if until is None and max_events is None:
            if self.spans is None:
                # Fast path: the overwhelmingly common full-drain loop.
                # A recorder attached mid-drain only takes effect at the
                # next run() call (attach before running, as documented).
                while heap:
                    time, _prio, _seq, event = heappop(heap)
                    if event.cancelled:
                        continue
                    self.now = time
                    event.callback(*event.args)
                    count += 1
                return count
            spans = self.spans
            while heap:
                time, _prio, _seq, event = heappop(heap)
                if event.cancelled:
                    continue
                self.now = time
                spans.current = event.ctx
                event.callback(*event.args)
                count += 1
            spans.current = None
            return count
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heappop(heap)
                continue
            if until is not None and entry[0] > until:
                self.now = until
                break
            heappop(heap)
            self.now = entry[0]
            spans = self.spans
            if spans is not None:
                spans.current = entry[3].ctx
            entry[3].callback(*entry[3].args)
            count += 1
            if max_events is not None and count >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        if until is not None and self.now < until:
            self.now = until
        spans = self.spans
        if spans is not None:
            spans.current = None
        return count

    @property
    def pending_events(self) -> int:
        return sum(1 for entry in self._heap if not entry[3].cancelled)


class CancelToken:
    """Minimal payload for queue entries that are not kernel events.

    The queues duck-type their payloads: anything with a ``cancelled``
    flag, a ``_cq`` back-reference slot, and a ``_seq`` generation slot
    works (the kernel's ``ScheduledEvent`` carries all three).

    Liveness protocol: an entry ``(time, priority, seq, payload)`` is
    live iff ``payload._seq == seq``.  ``push`` stamps the payload with
    the entry's seq; cancelling (or rescheduling) overwrites ``_seq``,
    which retires the resident entry with a single integer compare on
    the pop path -- no flag *and* generation double-check needed.
    """

    __slots__ = ("cancelled", "_cq", "_seq", "data")

    def __init__(self, data: Any = None) -> None:
        self.cancelled = False
        self._cq = None
        self._seq = -1
        self.data = data

    def cancel(self) -> None:
        """Mark dead and notify the owning queue (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        cq = self._cq
        if cq is not None:
            self._cq = None
            self._seq = -1
            cq.note_cancel()


class EagerHeapQueue:
    """Binary heap with the calendar queue's eager-cancel compaction.

    Same entry layout and pop order as a plain ``heapq`` (it *is* one),
    but cancelled entries are counted and the heap is rebuilt without
    them once they outnumber the compaction threshold -- so a
    cancel-heavy producer can no longer grow the heap without bound.
    The order oracle of ``tests/test_calendar_queue.py``.
    """

    __slots__ = ("_heap", "_dead", "_compact_at")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._dead = 0
        self._compact_at = _MIN_COMPACT

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def live(self) -> int:
        return len(self._heap) - self._dead

    def __bool__(self) -> bool:
        return self.live > 0

    def push(self, time: int, priority: int, seq: int, payload: Any) -> None:
        payload._cq = self
        payload._seq = seq
        heapq.heappush(self._heap, (time, priority, seq, payload))

    def note_cancel(self) -> None:
        self._dead += 1
        if self._dead >= self._compact_at:
            heap = [e for e in self._heap if e[3]._seq == e[2]]
            heapq.heapify(heap)
            self._heap = heap
            self._dead = 0
            self._compact_at = max(_MIN_COMPACT, len(heap))

    def pop(self, limit: Optional[int] = None) -> Optional[Entry]:
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3]._seq != entry[2]:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            if limit is not None and entry[0] > limit:
                return None
            heapq.heappop(heap)
            entry[3]._cq = None
            return entry
        return None
