"""The lazy-cancel binary-heap simulator kernel.

``repro.sim.kernel.Simulator`` drains a heap whose entries are retired
by generation stamp, swept in bulk, and whose ``reschedule`` re-arms
the same handle; this is the simplest kernel that can be right: a
cancelled handle is skipped when it surfaces and ``reschedule`` is
``cancel()`` plus a fresh handle.  It is a ``Simulator`` subclass so
everything that is not the event queue (time helpers, RNG streams,
entity ids, trace hooks) is shared with production.  Both pop in
identical ``(time, priority, seq)`` order and consume one sequence
number per schedule/reschedule, so traces are bit-identical;
``tests/_differential.py`` substitutes :class:`HeapSimulator` at the
three construction sites and ``tests/test_differential_engines.py``
asserts the identity.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.sim.kernel import (
    ScheduledEvent,
    SimulationError,
    Simulator,
    fmt_time,
)


class HeapSimulator(Simulator):
    """``Simulator`` on a lazy-cancel binary heap.

    It shares production's ``_heap`` list of ``(time, priority, seq,
    event)`` entries and nothing else of its queue: no stamp, no dead
    count, no sweep.
    """

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
        """Lazy-cancel + fresh handle."""
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

