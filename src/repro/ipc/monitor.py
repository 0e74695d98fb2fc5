"""The local monitor's decision core, and the real thread that drives it.

The paper's local monitor (Sec. IV-A) is one mechanism:

- one monitor thread per process, one semaphore;
- per segment, two SPSC ring buffers (start events, end events);
- instrumented code posts the current ``monotonic_ns`` timestamp into
  the start buffer and raises the semaphore; end events are posted
  without notification;
- the monitor blocks in a timed wait until the earliest pending
  deadline, drains buffers in fixed segment order (starts before ends),
  arms timeouts, matches end events, and invokes the exception callback
  for expired activations after a last look at their end buffer.

:class:`DecisionCore` is that mechanism without a clock or a thread,
and two drivers run it: :class:`IpcMonitor` below is the real thread,
which all Fig. 11 measurements instrument with real clocks;
``repro.core.local_monitor.MonitorThread`` is the simulated one, which
charges its CPU cost for each decision the core announces.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.ipc.ring_buffer import KIND_END, KIND_START, SpscRingBuffer
from repro.ipc.semaphore import TimedSemaphore

ExceptionCallback = Callable[[str, int, int], None]  # (segment, activation, late_ns)

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


@dataclass
class MonitorStats:
    """Measured behaviour of the real monitor (Fig. 11 quantities)."""

    #: ns from posting a start event to the monitor processing it.
    monitor_latencies: List[int] = field(default_factory=list)
    #: ns the monitor spent processing per wake-up.
    execution_times: List[int] = field(default_factory=list)
    wakeups: int = 0
    exceptions: int = 0
    completions: int = 0
    stale_end_events: int = 0


class IpcSegment:
    """One monitored segment: its deadline and its two ring buffers."""

    def __init__(
        self,
        name: str,
        deadline_ns: int,
        start_buffer: SpscRingBuffer,
        end_buffer: SpscRingBuffer,
    ):
        if deadline_ns <= 0:
            raise ValueError("deadline must be positive")
        self.name = name
        self.deadline_ns = deadline_ns
        self.start_buffer = start_buffer
        self.end_buffer = end_buffer
        self.dropped_events = 0

    # -- producer-side instrumentation (any thread/process) --------------
    def post_start(self, activation: int, semaphore: TimedSemaphore) -> int:
        """Post a start event + notify; returns the posting cost in ns."""
        t0 = time.perf_counter_ns()
        ok = self.start_buffer.push(KIND_START, activation, time.monotonic_ns())
        if ok:
            semaphore.post()
        else:
            self.dropped_events += 1
        return time.perf_counter_ns() - t0

    def post_end(self, activation: int) -> int:
        """Post an end event (no notification); returns cost in ns."""
        t0 = time.perf_counter_ns()
        if not self.end_buffer.push(KIND_END, activation, time.monotonic_ns()):
            self.dropped_events += 1
        return time.perf_counter_ns() - t0


class IpcMonitor:
    """The real high-priority monitor thread."""

    def __init__(
        self,
        segments: List[IpcSegment],
        on_exception: Optional[ExceptionCallback] = None,
        poll_cap_s: float = 0.2,
    ):
        self.segments = list(segments)
        self.semaphore = TimedSemaphore()
        self.on_exception = on_exception or (lambda *_args: None)
        self.poll_cap_s = poll_cap_s
        self.stats = MonitorStats()
        self.core = DecisionCore()
        for segment in self.segments:
            self.core.add(segment, segment.deadline_ns,
                          self.stats.monitor_latencies, self._ended)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the monitor thread."""
        if self._thread is not None:
            raise RuntimeError("monitor already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="ipc-monitor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop and join the monitor thread."""
        self._stop.set()
        self.semaphore.post()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "IpcMonitor":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _ended(self, _n: int, _end_ns: int, start: Optional[Sequence]) -> None:
        if start is None:
            self.stats.stale_end_events += 1
        else:
            self.stats.completions += 1

    def wake(self, now: int) -> None:
        """Process one wake-up at *now* (``monotonic_ns``)."""
        t_wake = time.perf_counter_ns()
        self.stats.wakeups += 1
        for decision in self.core.wake(now):
            if decision is ARM or decision is MATCH:
                continue
            lane, start, deadline = decision
            self.stats.exceptions += 1
            self.on_exception(lane.segment.name, start[1], now - deadline)
        self.stats.execution_times.append(time.perf_counter_ns() - t_wake)

    def _run(self) -> None:
        while not self._stop.is_set():
            deadline = self.core.next_deadline
            if deadline is None:
                timeout = self.poll_cap_s
            else:
                timeout = min(
                    self.poll_cap_s,
                    max(0.0, (deadline - time.monotonic_ns()) / 1e9),
                )
            self.semaphore.wait(timeout_s=timeout)
            if self._stop.is_set():
                return
            self.wake(time.monotonic_ns())
