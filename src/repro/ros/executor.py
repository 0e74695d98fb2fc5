"""Single-threaded executor dispatching node callbacks.

One executor per process (node), running as a simulated thread at the
process's scheduling priority.  Work items arrive from subscription
deliveries and timers; the executor pops them FIFO and runs them to
completion -- so a long-running callback delays everything behind it,
which is one of the latency sources the paper's local segments absorb.

A callback may return a generator: the executor then drives it, so the
callback can yield ``Compute(...)`` to consume CPU time preemptibly.
"""

from __future__ import annotations

import types
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.sim.cpu import Ecu
from repro.sim.sync import Semaphore
from repro.sim.threads import SimThread, WaitSem


class SingleThreadedExecutor:
    """FIFO callback dispatcher on a dedicated simulated thread."""

    def __init__(self, ecu: Ecu, name: str, priority: int):
        self.ecu = ecu
        self.sim = ecu.sim
        self.name = name
        self.priority = priority
        self._queue: Deque[Tuple[Callable[..., Any], tuple, int, Any]] = deque()
        self._sem = Semaphore(self.sim, name=f"{name}.exec")
        self.callbacks_executed = 0
        self.callback_errors = 0
        #: Most recent exception raised by a callback (diagnostics).
        self.last_error: Optional[Exception] = None
        #: Sum and max of enqueue->dispatch delay, for diagnostics.
        self.total_queueing_delay = 0
        self.max_queueing_delay = 0
        self.thread: SimThread = ecu.spawn(
            f"{name}.executor", self._body, priority=priority
        )

    def enqueue(self, callback: Callable[..., Any], *args: Any) -> None:
        """Add a work item; the executor thread is woken if idle."""
        spans = self.sim.spans
        self._queue.append((
            callback,
            args,
            self.sim.now,
            None if spans is None else spans.current,
        ))
        self._sem.post()

    @property
    def backlog(self) -> int:
        """Number of queued, not yet started, work items."""
        return len(self._queue)

    def _body(self, _thread):
        wait = WaitSem(self._sem)
        while True:
            yield wait
            if not self._queue:
                continue
            callback, args, enqueued_at, ctx = self._queue.popleft()
            delay = self.sim.now - enqueued_at
            self.total_queueing_delay += delay
            if delay > self.max_queueing_delay:
                self.max_queueing_delay = delay
            spans = self.sim.spans
            span = None
            if spans is not None:
                # The compute span of this callback: child of whatever
                # caused the enqueue (a transport span for subscription
                # deliveries, None for timers -> a new chain root).
                span = spans.begin(
                    f"{self.name}.callback", "compute", parent=ctx,
                    queued_ns=delay,
                )
                arg0 = args[0] if args else None
                topic = getattr(arg0, "topic", None)
                if topic is not None:
                    span.attrs["topic"] = topic.name
                    frame = getattr(arg0.data, "frame_index", None)
                    if frame is not None:
                        span.attrs["frame"] = frame
                span_ctx = span.context
                self.thread.span_ctx = span_ctx
                spans.current = span_ctx
            # A faulty callback must not kill the executor: real rclcpp
            # executors survive throwing callbacks; we log and continue.
            try:
                result = callback(*args)
                if isinstance(result, types.GeneratorType):
                    yield from result
            except Exception as error:  # noqa: BLE001 - isolation boundary
                self.callback_errors += 1
                self.last_error = error
                if self.sim.tracing_active:
                    self.sim.emit_trace(
                        "executor.callback_error",
                        executor=self.name,
                        error=repr(error),
                    )
            self.callbacks_executed += 1
            if span is not None:
                spans.end(span)
                self.thread.span_ctx = None
                spans.current = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SingleThreadedExecutor {self.name} prio={self.priority}>"
