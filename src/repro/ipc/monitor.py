"""The real local monitor thread, driving the decision core.

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

:class:`~repro.ipc.decision.DecisionCore` is that mechanism without a
clock or a thread, and two drivers run it: :class:`IpcMonitor` below is
the real thread, which all Fig. 11 measurements instrument with real
clocks; ``repro.core.local_monitor.MonitorThread`` is the simulated one,
which charges its CPU cost for each decision the core announces.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.ipc.decision import ARM, MATCH, DecisionCore
from repro.ipc.ring_buffer import KIND_END, KIND_START, SpscRingBuffer
from repro.ipc.semaphore import TimedSemaphore

ExceptionCallback = Callable[[str, int, int], None]  # (segment, activation, late_ns)

#: Longest timed wait, s: the thread re-checks its stop flag this often
#: even when no deadline is pending.
POLL_CAP_S = 0.2


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
    ):
        self.segments = list(segments)
        self.semaphore = TimedSemaphore()
        self.on_exception = on_exception or (lambda *_args: None)
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
                timeout = POLL_CAP_S
            else:
                timeout = min(
                    POLL_CAP_S,
                    max(0.0, (deadline - time.monotonic_ns()) / 1e9),
                )
            self.semaphore.wait(timeout_s=timeout)
            if self._stop.is_set():
                return
            self.wake(time.monotonic_ns())
