"""Local segment monitoring (paper Sec. IV-A).

One high-priority **monitor thread** per process/ECU supervises all
local segments whose end events occur there.  Instrumented DDS endpoint
code posts timestamps into per-segment **ring buffers** (one for start
events, one for end events) in shared memory and raises the monitor's
**semaphore** on start events only -- end events do not notify, saving a
context switch, because their processing is not time critical.

The monitor thread blocks in ``sem_timedwait`` with the timeout set to
the earliest pending deadline.  What it decides when it wakes -- drain
the buffers in a *fixed segment order* (the cause of the ground-points
skew in the paper's Fig. 10), arm a timeout for every new start event,
match end events, expire activations after a last look at their end
buffer -- is :class:`~repro.ipc.decision.DecisionCore`, which the real
shared-memory monitor runs too; :class:`MonitorThread` charges the
``*_COST_NS`` constants for each decision and runs Algorithm 2 for each
expiry.  After an exception, the corresponding late publication (or
late reception, for sink segments) is skipped via a shared counter
evaluated by the instrumented endpoint.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.chain_runtime import ChainRuntime, Outcome
from repro.core.exceptions import (
    ExceptionContext,
    ExceptionHandler,
    PropagateAlways,
    TemporalException,
    handle_local_exception,
)
from repro.core.events import EventKind
from repro.core.segments import Segment, SegmentKind
from repro.core.weakly_hard import MKAutomaton, MKConstraint
from repro.dds.reader import DataReader
from repro.dds.topic import Sample, Topic
from repro.dds.writer import DataWriter
from repro.ipc.decision import ARM, MATCH, DecisionCore, Lane
from repro.sim.cpu import Ecu
from repro.sim.kernel import usec
from repro.sim.sync import Semaphore
from repro.sim.threads import Compute, WaitSem


class EventRingBuffer(deque):
    """A bounded wait-free-style event buffer with overflow counting.

    Models the paper's shared-memory ring buffers.  Capacity overruns
    are counted and drop the *newest* event (a correctly sized buffer
    never overflows; the counter is a deployment diagnostic).  It is a
    deque, so the monitor's emptiness test costs no call.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__()
        self.capacity = capacity
        self.overflows = 0
        self.posted = 0

    def post(self, item: tuple) -> bool:
        """Append *item*; False (and counted) if the buffer is full."""
        if len(self) >= self.capacity:
            self.overflows += 1
            return False
        self.append(item)
        self.posted += 1
        return True

    def drain(self) -> List[tuple]:
        """Pop and return everything currently buffered (FIFO)."""
        items = list(self)
        self.clear()
        return items


#: CPU work charged to the monitor thread per action (ns): arming a
#: start event, matching an end event, detecting an expiry, entering a
#: forwarded remote timeout.
START_EVENT_COST_NS = usec(2)
END_EVENT_COST_NS = usec(1)
EXCEPTION_DETECT_COST_NS = usec(5)
REMOTE_ENTRY_COST_NS = usec(3)


ActivationFn = Callable[[Sample], Optional[int]]


class SkipGate:
    """The shared skip counter evaluated by the publisher (Sec. IV-A).

    After an exception the segment's late real end event (publication or
    reception) must be suppressed.  When two segments share one end
    endpoint -- the paper's fusion publishes ``points_fused`` as the end
    event of both the front- and rear-started local segments -- the
    suppression must not double up, so one gate is shared and tracks
    *which activations* to skip (falling back to a plain counter when no
    activation extractor is available).
    """

    def __init__(self, activation_fn: Optional[ActivationFn] = None):
        self.activation_fn = activation_fn
        self._activations: set = set()
        self._count = 0
        self.suppressed = 0
        self._installed: set = set()

    def add(self, activation: Optional[int]) -> None:
        """Mark the (next) end event of *activation* for suppression."""
        if activation is not None and self.activation_fn is not None:
            self._activations.add(activation)
        else:
            self._count += 1

    def _filter(self, sample: Sample) -> bool:
        if sample.recovered:
            return True
        if self.activation_fn is not None:
            n = self.activation_fn(sample)
            if n is not None and n in self._activations:
                self._activations.discard(n)
                self.suppressed += 1
                return False
        if self._count > 0:
            self._count -= 1
            self.suppressed += 1
            return False
        return True

    def install_writer(self, writer: DataWriter) -> None:
        """Attach the gate's filter to *writer* (idempotent)."""
        if id(writer) not in self._installed:
            self._installed.add(id(writer))
            writer.publish_filters.append(self._filter)

    def install_reader(self, reader: DataReader) -> None:
        """Attach the gate's filter to *reader* (idempotent)."""
        if id(reader) not in self._installed:
            self._installed.add(id(reader))
            reader.receive_filters.append(self._filter)


class LocalSegmentRuntime:
    """Monitoring state of one local segment, owned by a MonitorThread.

    Parameters
    ----------
    segment:
        The segment descriptor; ``d_mon`` must be assigned.
    handler:
        Application exception-handling policy (Algorithm 2).
    mk:
        Weakly-hard constraint used for the handler's miss count m.
    activation_fn:
        Extracts the activation index n from a sample; ``None`` falls
        back to arrival counting (valid under in-order delivery).
    """

    def __init__(
        self,
        segment: Segment,
        handler: Optional[ExceptionHandler] = None,
        mk: MKConstraint = MKConstraint(0, 1),
        activation_fn: Optional[ActivationFn] = None,
        skip_gate: Optional[SkipGate] = None,
    ):
        if segment.kind is not SegmentKind.LOCAL:
            raise ValueError(f"{segment.name} is not a local segment")
        if segment.d_mon is None:
            raise ValueError(f"{segment.name} has no monitored deadline assigned")
        self.segment = segment
        self.handler = handler or PropagateAlways()
        self.window = MKAutomaton(mk)
        self.activation_fn = activation_fn
        self.start_buffer = EventRingBuffer()
        self.end_buffer = EventRingBuffer()
        self._start_count = 0
        self._end_count = 0
        self.skip_gate = skip_gate or SkipGate(activation_fn=activation_fn)
        self.last_good_data: Any = None
        self.monitor: Optional["MonitorThread"] = None
        #: This segment in its monitor's decision core (add_segment).
        self.lane: Optional[Lane] = None
        # Recovery outputs (exactly one of these is wired by attach_end_*).
        self._recovery_writer: Optional[DataWriter] = None
        self._recovery_reader: Optional[DataReader] = None
        self._end_topic: Optional[Topic] = None
        # Measurements.
        self.latencies: List[Tuple[int, int, Outcome]] = []  # (n, latency, outcome)
        self.exceptions: List[TemporalException] = []
        self.stale_end_events = 0
        self.monitor_latency_samples: List[int] = []
        self.reporters: List[ChainRuntime] = []
        #: Span contexts of pending activations (span tracing only):
        #: captured at the start event so an exception span can parent
        #: to the causal chain that started the activation.
        self._span_ctx: Dict[int, Any] = {}

    @property
    def pending(self) -> Dict[int, Sequence]:
        """Armed activations: n -> start record ``(data, n, start stamp)``."""
        return self.lane.pending

    # ------------------------------------------------------------------
    # Instrumentation attachment
    # ------------------------------------------------------------------
    def attach_start(self, reader: DataReader) -> None:
        """Install the start-event hook on the reader where the segment
        begins (reception of the start topic by the process)."""
        reader.on_receive_hooks.append(self._on_start_sample)

    def attach_end_writer(self, writer: DataWriter) -> None:
        """Install end-event hook + skip filter on the end publisher."""
        self._recovery_writer = writer
        self.skip_gate.install_writer(writer)
        writer.on_publish_hooks.append(self._on_end_sample)

    def attach_end_reader(self, reader: DataReader) -> None:
        """Install end-event hook + skip filter on the end subscriber
        (sink segments, like the rviz2 end of the paper's evaluation)."""
        self._recovery_reader = reader
        self._end_topic = reader.topic
        self.skip_gate.install_reader(reader)
        reader.on_receive_hooks.append(self._on_end_sample)

    # ------------------------------------------------------------------
    # Endpoint-context callbacks (zero simulated time)
    # ------------------------------------------------------------------
    def _on_start_sample(self, sample: Sample) -> None:
        monitor = self.monitor or self._require_monitor()
        n = None if self.activation_fn is None else self.activation_fn(sample)
        if n is None:
            n = self._start_count
        self._start_count += 1
        ts = monitor.ecu.now()
        sim = monitor.sim
        posted = self.start_buffer.post((sample.data, n, ts))
        if posted and sim.spans is not None:
            # Runs inside the start-event delivery: the ambient context
            # is the transport span that delivered the start sample.
            # A dropped start event is never armed, so nothing would
            # ever consume its context.
            self._span_ctx[n] = sim.spans.current
        if sim.tracing_active:
            sim.emit_trace(
                "monitor.start_event", segment=self.segment.name, n=n, ts=ts
            )
        monitor.sem.post()

    def _on_end_sample(self, sample: Sample) -> None:
        monitor = self.monitor or self._require_monitor()
        n = None if self.activation_fn is None else self.activation_fn(sample)
        if n is None:
            n = self._end_count
        self._end_count += 1
        ts = monitor.ecu.now()
        sim = monitor.sim
        self.end_buffer.post((None, n, ts))
        if sim.tracing_active:
            sim.emit_trace(
                "monitor.end_event", segment=self.segment.name, n=n, ts=ts
            )
        # Deliberately no sem.post(): end events are not time critical.

    def post_error_propagation(self, activation: int) -> None:
        """Consume *activation* as an upstream-propagated miss.

        Called (via the monitor) when the preceding remote segment
        propagates its exception instead of issuing a start event.
        """
        self._start_count += 1
        monitor = self.monitor
        if monitor is not None and monitor.sim.spans is not None:
            # Error-propagation event (Algorithm 1 line 7): an instant
            # span under the ambient (remote exception) context.
            monitor.sim.spans.instant(
                "monitor.propagation",
                "exception",
                segment=self.segment.name,
                n=activation,
            )
        for runtime in self.reporters:
            runtime.report(self.segment.name, activation, Outcome.SKIPPED)

    # ------------------------------------------------------------------
    # Monitor-thread-context operations
    # ------------------------------------------------------------------
    def _require_monitor(self) -> "MonitorThread":
        if self.monitor is None:
            raise RuntimeError(
                f"segment {self.segment.name} is not attached to a monitor thread"
            )
        return self.monitor

    def _complete(self, n: int, end_ts: int, start: Optional[Sequence]) -> None:
        if start is None:
            self.stale_end_events += 1
            return
        if self._span_ctx:
            self._span_ctx.pop(n, None)
        latency = end_ts - start[2]
        # Remember the input of the last successful activation: recovery
        # handlers commonly fall back to it.
        self.last_good_data = start[0]
        self.window.record(False)
        self.latencies.append((n, latency, Outcome.OK))
        for runtime in self.reporters:
            runtime.report(self.segment.name, n, Outcome.OK, latency=latency)

    def _raise_exception(
        self, start: Sequence, deadline: int, detected_at: int,
        span_begin: Optional[int] = None,
    ) -> bool:
        """Run Algorithm 2 for the expired activation armed with *start*;
        True if recovered."""
        monitor = self._require_monitor()
        data, n, start_ts = start
        exception = TemporalException(
            segment=self.segment,
            activation=n,
            deadline=deadline,
            raised_at=detected_at,
        )
        self.exceptions.append(exception)
        context = ExceptionContext(
            exception=exception,
            misses=self.window.misses_in_window + 1,
            start_data=data,
            last_good_data=self.last_good_data,
        )
        spans = monitor.sim.spans
        exc_span = None
        prev_ctx = None
        if spans is not None:
            # The exception-handling span (Algorithm 2): parented to the
            # causal chain that delivered the start event, anchored at
            # the instant the monitor began handling the expiry.
            parent = self._span_ctx.pop(n, None)
            exc_span = spans.begin(
                f"monitor.exception:{self.segment.name}",
                "exception",
                parent=parent if parent is not None else spans.current,
                start=span_begin,
                segment=self.segment.name,
                n=n,
            )
            prev_ctx = spans.current
            spans.current = exc_span.context
        recovered = handle_local_exception(
            self.handler, context, self._publish_recovery
        )
        if exc_span is not None:
            spans.current = prev_ctx
        # Skip the late real end event and its publication/reception.
        self.skip_gate.add(n)
        handled_at = monitor.ecu.now()
        latency = handled_at - start_ts
        outcome = Outcome.RECOVERED if recovered else Outcome.MISS
        self.window.record(not recovered)
        self.latencies.append((n, latency, outcome))
        for runtime in self.reporters:
            runtime.report(
                self.segment.name,
                n,
                outcome,
                latency=latency,
                detection_latency=detected_at - deadline,
            )
            runtime.report_exception(exception)
        if monitor.sim.tracing_active:
            monitor.sim.emit_trace(
                "monitor.exception",
                segment=self.segment.name,
                n=n,
                recovered=recovered,
                detection_latency=detected_at - deadline,
            )
        if exc_span is not None:
            exc_span.attrs["recovered"] = recovered
            exc_span.attrs["detection_latency"] = detected_at - deadline
            spans.end(exc_span)
        return recovered

    def _publish_recovery(self, data: Any) -> None:
        if self._recovery_writer is not None:
            self._recovery_writer.write(data, recovered=True)
            return
        if self._recovery_reader is not None and self._end_topic is not None:
            monitor = self._require_monitor()
            sample = Sample(
                topic=self._end_topic,
                data=data,
                source_timestamp=monitor.ecu.now(),
                sequence_number=-1,
                recovered=True,
            )
            self._recovery_reader.issue_receive(sample)
            return
        raise RuntimeError(
            f"segment {self.segment.name}: recovery requested but no end "
            f"endpoint attached"
        )


class MonitorThread:
    """The high-priority monitor thread of one ECU/process.

    Parameters
    ----------
    ecu:
        Hosting ECU; the thread runs at *priority* (highest, per paper).
    priority:
        Scheduling priority; must exceed every application/middleware
        thread for bounded reaction times.
    """

    def __init__(
        self,
        ecu: Ecu,
        name: str = "monitor",
        priority: int = 99,
    ):
        self.ecu = ecu
        self.sim = ecu.sim
        self.name = name
        # The two per-event syscalls, built once.
        self._start_cost = Compute(START_EVENT_COST_NS)
        self._end_cost = Compute(END_EVENT_COST_NS)
        self.sem = Semaphore(self.sim, name=f"{ecu.name}.{name}.sem")
        self.segments: List[LocalSegmentRuntime] = []
        self.core = DecisionCore()
        self._remote_queue: Deque[Callable[[], None]] = deque()
        self.wakeups = 0
        self.exceptions_raised = 0
        self.thread = ecu.spawn(name, self._body, priority=priority)

    # ------------------------------------------------------------------
    def add_segment(self, runtime: LocalSegmentRuntime) -> LocalSegmentRuntime:
        """Register a local segment; buffer processing follows this order."""
        runtime.monitor = self
        runtime.lane = self.core.add(
            runtime, runtime.segment.d_mon,
            runtime.monitor_latency_samples, runtime._complete,
        )
        self.segments.append(runtime)
        return runtime

    def forward(self, fn: Callable[[], None]) -> None:
        """Run *fn* on the monitor thread (remote-timeout forwarding).

        This is the paper's Sec. V-B proposal: program timeouts in the
        middleware but execute the handling at monitor priority.
        """
        self._remote_queue.append(fn)
        self.sem.post()

    # ------------------------------------------------------------------
    def _body(self, _thread):
        core = self.core
        remote_queue = self._remote_queue
        # One syscall object, re-aimed per wait: the scheduler reads it
        # before the thread runs again.
        wait = WaitSem(self.sem)
        while True:
            yield wait
            self.wakeups += 1
            # 1) Remote timeout forwards (Sec. V-B path).
            while remote_queue:
                fn = remote_queue.popleft()
                yield Compute(REMOTE_ENTRY_COST_NS)
                fn()
            # 2) The core's decisions, each charged before it is made;
            # the core is told the time after every charge.
            for decision in core.wake(self.ecu.now()):
                if decision is ARM:
                    yield self._start_cost
                elif decision is MATCH:
                    yield self._end_cost
                else:
                    lane, start, deadline = decision
                    runtime = lane.segment
                    # Anchor the exception span at the instant the monitor
                    # started reacting, before detection/handler CPU costs.
                    span_begin = None if self.sim.spans is None else self.sim.now
                    yield Compute(EXCEPTION_DETECT_COST_NS)
                    if runtime.handler.cost_ns > 0:
                        yield Compute(runtime.handler.cost_ns)
                    runtime._raise_exception(
                        start, deadline, self.ecu.now(), span_begin
                    )
                    self.exceptions_raised += 1
                core.now = self.ecu.now()
            # 3) Sleep until the earliest live deadline.  No simulated time
            # passes between the last clock reading and the wait.
            deadline = core.next_deadline
            wait.timeout = None if deadline is None else deadline - core.now

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MonitorThread {self.ecu.name}.{self.name} "
            f"segments={[r.segment.name for r in self.segments]}>"
        )
