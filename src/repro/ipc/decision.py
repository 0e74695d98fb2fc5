"""The local monitor's decision core: arm, match, expire -- clock-free.

The paper's local monitor (Sec. IV-A) drains, per segment, a start and
an end ring buffer in fixed segment order (starts before ends), arms a
timeout per start, matches end events, and raises an exception for every
activation whose deadline passed after a last look at its end buffer.
:class:`DecisionCore` is that mechanism without a clock or a thread, and
two drivers run it: :class:`~repro.ipc.monitor.IpcMonitor` is the real
thread, ``repro.core.local_monitor.MonitorThread`` the simulated one.
This module imports neither a thread nor a semaphore, so the simulated
monitor loads none of the real one's machinery.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: What :meth:`DecisionCore.wake` yields just before it arms a start or
#: matches an end, so that a driver can charge the decision's cost
#: first.  Anything else it yields is an expired activation.
ARM = "arm"
MATCH = "match"


class Lane:
    """One segment as the decision core sees it.

    The core drains ``segment.start_buffer`` / ``segment.end_buffer``,
    looked up on every wake (a driver may replace a buffer).  Records
    are sequences laid out like :class:`~repro.ipc.ring_buffer.EventRecord`,
    ``(tag, activation, timestamp_ns)``; the core reads the activation
    and the stamp only (the simulated buffers carry a start sample's
    data as the tag).
    """

    __slots__ = ("segment", "deadline", "pending", "latencies", "on_end")

    def __init__(self, segment: Any, deadline: int, latencies: List[int],
                 on_end: Callable[[int, int, Optional[Sequence]], None]):
        self.segment = segment
        #: Relative deadline (ns) every start is armed with.
        self.deadline = deadline
        #: Armed activations: activation -> its start record.
        self.pending: Dict[int, Sequence] = {}
        #: Receives ``now - start stamp`` for every start armed.
        self.latencies = latencies
        #: ``on_end(activation, end stamp, start record)``; the start
        #: record is None for a stale end event (nothing armed to match).
        self.on_end = on_end


class DecisionCore:
    """Arm / match / expire for an ordered set of segments, clock-free.

    The driver tells the core the time, on the clock the records are
    stamped with: as the argument of :meth:`wake`, and by setting
    :attr:`now` after the cost of a decision moved it.

    Deadlines are a lazy heap: an entry is live while its activation is
    pending with the very record it was armed with, so completing,
    raising or re-arming an activation retires its entry at once, and a
    wake drops dead entries as they reach the top.
    """

    def __init__(self) -> None:
        self.lanes: List[Lane] = []
        self.now = 0
        #: The earliest live deadline when the last wake ended (None:
        #: nothing armed) -- when the driver has to wake up next.
        self.next_deadline: Optional[int] = None
        self._timeouts: List[Tuple[int, int, Lane, Sequence]] = []
        self._seq = 0

    def add(self, segment: Any, deadline: int, latencies: List[int],
            on_end: Callable[[int, int, Optional[Sequence]], None]) -> Lane:
        """Append a segment to the fixed processing order."""
        lane = Lane(segment, deadline, latencies, on_end)
        self.lanes.append(lane)
        return lane

    def _arm(self, lane: Lane, record: Sequence) -> None:
        deadline = record[2] + lane.deadline
        lane.pending[record[1]] = record
        heapq.heappush(self._timeouts, (deadline, self._seq, lane, record))
        self._seq += 1
        lane.latencies.append(self.now - record[2])

    def wake(self, now: int):
        """One wake-up at *now*, as a generator of decisions.

        First every segment in fixed order, starts before ends; then,
        earliest deadline first, every activation whose deadline passed:
        its segment's end buffer gets a last look, and if the activation
        is still pending it is retired.  Yields :data:`ARM` before arming
        a start, :data:`MATCH` before matching an end, and ``(lane, start
        record, deadline)`` for each activation to raise.  Ends with
        :attr:`next_deadline` None or later than :attr:`now`.
        """
        self.now = now
        timeouts = self._timeouts
        lanes = iter(self.lanes)
        while True:
            lane = next(lanes, None)
            expired = None
            if lane is not None:
                segment = lane.segment
                if segment.start_buffer:
                    # _arm, inlined: one start per activation on the
                    # simulated monitor's hot path.
                    pending, latencies = lane.pending, lane.latencies
                    for record in segment.start_buffer.drain():
                        yield ARM
                        pending[record[1]] = record
                        heapq.heappush(timeouts, (
                            record[2] + lane.deadline, self._seq, lane, record
                        ))
                        self._seq += 1
                        latencies.append(self.now - record[2])
            else:
                while timeouts:
                    head = timeouts[0]
                    if head[2].pending.get(head[3][1]) is head[3]:
                        break
                    heapq.heappop(timeouts)
                if not timeouts or timeouts[0][0] > self.now:
                    break
                deadline, _seq, lane, expired = heapq.heappop(timeouts)
                segment = lane.segment
            if segment.end_buffer:
                pending = lane.pending
                for record in segment.end_buffer.drain():
                    yield MATCH
                    n = record[1]
                    start = pending.pop(n, None)
                    if start is None and segment.start_buffer:
                        # The end may have overtaken its start, posted
                        # after the start buffer was drained: arm the
                        # starts still buffered before the end counts as
                        # stale, or a sound activation would raise.
                        for early in segment.start_buffer.drain():
                            yield ARM
                            self._arm(lane, early)
                        start = pending.pop(n, None)
                    lane.on_end(n, record[2], start)
            if expired is not None and lane.pending.get(expired[1]) is expired:
                del lane.pending[expired[1]]
                yield lane, expired, deadline
        self.next_deadline = timeouts[0][0] if timeouts else None
