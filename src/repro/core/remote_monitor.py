"""Remote segment monitoring at the receiver (paper Sec. IV-B).

Two approaches are implemented:

:class:`InterArrivalMonitor`
    The DDS-style baseline: a timer re-armed on every arrival with the
    maximum allowed inter-arrival time.  The paper's Fig. 6 analysis
    shows why this cannot implement (m,k) monitoring for m > 0: the
    reference point is the *previous arrival*, so consecutive lateness
    accumulates undetected, and tight settings false-positive on benign
    jitter.  Suitable for liveliness, not latency.

:class:`SyncRemoteMonitor`
    The paper's synchronization-based approach: ECU clocks are
    PTP-synchronized, so the receiver can interpret the sender timestamp
    carried in each sample and program the deadline for sample n+1 at
    ``t_st,n + P + d_mon`` (pessimism bounded by arrival jitter + sync
    error, both folded into ``d_mon``).  On expiry the next deadline is
    simply the last one plus the period, so consecutive misses are each
    detected.  Late samples are discarded to preserve the constant-rate
    assumption; the handler may recover by issuing the receive event
    itself (Algorithm 1) or propagate an error event to the next local
    segment's monitor.

Timeout handling can execute in the **middleware** event thread (what
the paper measures in Fig. 12: 100 us .. 2 ms entry latency under load)
or be forwarded to the high-priority **monitor thread** (the paper's
proposed fix, Sec. V-B).
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional, Tuple

from repro.core.chain_runtime import ChainRuntime, Outcome
from repro.core.exceptions import (
    ExceptionContext,
    ExceptionHandler,
    PropagateAlways,
    TemporalException,
    handle_remote_exception,
)
from repro.core.local_monitor import LocalSegmentRuntime, MonitorThread
from repro.core.segments import Segment, SegmentKind
from repro.core.weakly_hard import MKAutomaton, MKConstraint
from repro.dds.reader import DataReader
from repro.dds.topic import Sample
from repro.sim.timers import Timer


class TimeoutContext(enum.Enum):
    """Where the timeout routine executes after the timer fires."""

    #: DDS event thread at middleware priority (paper Fig. 12 baseline).
    MIDDLEWARE = "middleware"
    #: Forwarded to the ECU's high-priority monitor thread (Sec. V-B).
    MONITOR_THREAD = "monitor_thread"


ActivationFn = Callable[[Sample], Optional[int]]


class SyncRemoteMonitor:
    """Synchronization-based monitoring of one remote segment.

    Parameters
    ----------
    segment:
        The remote segment (``d_mon`` must be assigned).
    reader:
        The DDS reader at which the segment's end (receive) events occur.
    period:
        Chain activation period P in ns.
    handler:
        Application exception policy (Algorithm 1).
    mk:
        Weakly-hard constraint for the handler's miss count m.
    context:
        Where timeout handling runs (middleware vs monitor thread).
    monitor_thread:
        Required for ``TimeoutContext.MONITOR_THREAD``.
    next_local:
        The subsequent local segment runtime(s) to which propagated
        exceptions send their error propagation event -- a single
        runtime, a sequence (a shared remote segment can feed several
        local segments, like the paper's classifier fan-out), or None
        for chain-terminal remote segments.
    activation_fn:
        Extracts activation index n from a sample (defaults to the
        writer sequence number).
    key:
        Instance key this monitor is responsible for (keyed topics --
        see :class:`KeyedSyncMonitorGroup`); stamped onto recovered
        samples.
    attach:
        Install the receive filter on the reader (default).  A
        :class:`KeyedSyncMonitorGroup` passes False and demultiplexes
        samples to its per-key monitors itself.
    """

    def __init__(
        self,
        segment: Segment,
        reader: DataReader,
        period: int,
        handler: Optional[ExceptionHandler] = None,
        mk: MKConstraint = MKConstraint(0, 1),
        context: TimeoutContext = TimeoutContext.MONITOR_THREAD,
        monitor_thread: Optional[MonitorThread] = None,
        next_local: Optional[LocalSegmentRuntime] = None,
        activation_fn: Optional[ActivationFn] = None,
        key: Optional[str] = None,
        attach: bool = True,
    ):
        if segment.kind is not SegmentKind.REMOTE:
            raise ValueError(f"{segment.name} is not a remote segment")
        if segment.d_mon is None:
            raise ValueError(f"{segment.name} has no monitored deadline assigned")
        if period <= 0:
            raise ValueError("period must be positive")
        if context is TimeoutContext.MONITOR_THREAD and monitor_thread is None:
            raise ValueError(
                "monitor_thread is required for TimeoutContext.MONITOR_THREAD"
            )
        self.segment = segment
        self.reader = reader
        self.period = int(period)
        self.handler = handler or PropagateAlways()
        self.window = MKAutomaton(mk)
        self.context = context
        self.monitor_thread = monitor_thread
        if next_local is None:
            self.next_local: List[LocalSegmentRuntime] = []
        elif isinstance(next_local, LocalSegmentRuntime):
            self.next_local = [next_local]
        else:
            self.next_local = list(next_local)
        self.activation_fn = activation_fn
        self.sim = reader.participant.sim
        self.ecu = reader.participant.ecu
        self._timer = Timer(
            self.sim, self._on_timer_expired, name=f"syncmon:{segment.name}"
        )
        #: Activation currently guarded by the timer (None before the
        #: first sample is observed).
        self.awaiting: Optional[int] = None
        #: Local-clock deadline for the awaited activation.
        self.deadline_local: Optional[int] = None
        self.last_good_data: Any = None
        # Measurements.
        self.latencies: List[Tuple[int, int, Outcome]] = []
        self.exceptions: List[TemporalException] = []
        self.entry_latency_samples: List[int] = []
        self.key = key
        self.late_discarded = 0
        self.reporters: List[ChainRuntime] = []
        self._issuing = False
        if attach:
            reader.receive_filters.append(self._receive_filter)

    # ------------------------------------------------------------------
    def _activation_of(self, sample: Sample) -> int:
        if self.activation_fn is not None:
            n = self.activation_fn(sample)
            if n is not None:
                return n
        return sample.sequence_number

    # ------------------------------------------------------------------
    # Arrival path (runs in delivery context, zero simulated time)
    # ------------------------------------------------------------------
    def _receive_filter(self, sample: Sample) -> bool:
        if self._issuing:
            # Recovered data issued by this monitor itself: pass through
            # without re-booking.  Samples merely *marked* recovered by an
            # upstream segment's recovery still arrive over the transport
            # and are monitored like any other (they can be late).
            return True
        n = self._activation_of(sample)
        if self.awaiting is not None and n < self.awaiting:
            # Arrived after its exception: discard the receive event to
            # preserve the constant-rate assumption.
            self.late_discarded += 1
            if self.sim.tracing_active:
                self.sim.emit_trace(
                    "syncmon.late_discarded", segment=self.segment.name, n=n
                )
            return False
        # Rare: a later sample overtakes an undetected missing one (only
        # possible when d_mon approaches P); treat the gap as misses.
        while self.awaiting is not None and n > self.awaiting:
            missed = self.awaiting
            nominal = self.deadline_local or self.ecu.now()
            self._advance_after(missed)
            self._dispatch_violation(missed, nominal)
        ts = sample.source_timestamp
        now_local = self.ecu.now()
        latency = now_local - ts
        self.window.record(False)
        self.latencies.append((n, latency, Outcome.OK))
        for runtime in self.reporters:
            runtime.report(self.segment.name, n, Outcome.OK, latency=latency)
        self.last_good_data = sample.data
        # Program the deadline for the *next* activation from the sender
        # timestamp (valid to within the PTP sync error).
        self.awaiting = n + 1
        self.deadline_local = ts + self.period + self.segment.d_mon
        # _to_sim_time() with the reading taken above: the clock has not
        # moved since (the reporters run in zero simulated time).
        sim_now = self.sim.now
        self._timer.start_at(
            max(sim_now, self.deadline_local - (now_local - sim_now))
        )
        if self.sim.tracing_active:
            self.sim.emit_trace(
                "syncmon.armed",
                segment=self.segment.name,
                n=self.awaiting,
                deadline=self.deadline_local,
            )
        return True

    def _to_sim_time(self, local_time: int) -> int:
        """Convert a local-clock instant to simulator time for the timer."""
        offset = self.ecu.now() - self.sim.now
        return max(self.sim.now, local_time - offset)

    # ------------------------------------------------------------------
    # Timeout path
    # ------------------------------------------------------------------
    def _on_timer_expired(self) -> None:
        # Kernel context (the hardware timer): mark the activation as
        # excepted immediately so late arrivals are discarded, re-arm for
        # the next period, then dispatch handling to the configured
        # context.
        assert self.awaiting is not None and self.deadline_local is not None
        missed = self.awaiting
        nominal = self.deadline_local
        self._advance_after(missed)
        self._dispatch_violation(missed, nominal)

    def _advance_after(self, missed: int) -> None:
        self.awaiting = missed + 1
        assert self.deadline_local is not None
        self.deadline_local = self.deadline_local + self.period
        self._timer.start_at(self._to_sim_time(self.deadline_local))

    def _dispatch_violation(self, n: int, nominal: int) -> None:
        # Ambient span context is lost through the deferred hop (the
        # middleware/monitor threads restore their own, empty, context),
        # so the anchor instant and causal parent travel explicitly.
        span_begin = None
        parent = None
        spans = self.sim.spans
        if spans is not None:
            span_begin = self.sim.now
            parent = spans.current
        if self.context is TimeoutContext.MIDDLEWARE:
            self.reader.participant.post_middleware_event(
                self._handle_violation, n, nominal, span_begin, parent
            )
        else:
            assert self.monitor_thread is not None
            self.monitor_thread.forward(
                lambda: self._handle_violation(n, nominal, span_begin, parent)
            )

    def _handle_violation(
        self,
        n: int,
        nominal: int,
        span_begin: Optional[int] = None,
        parent: Any = None,
    ) -> None:
        """Algorithm 1, executed in the configured timeout context."""
        entered_at = self.ecu.now()
        self.entry_latency_samples.append(entered_at - nominal)
        exception = TemporalException(
            segment=self.segment,
            activation=n,
            deadline=nominal,
            raised_at=entered_at,
        )
        self.exceptions.append(exception)
        context = ExceptionContext(
            exception=exception,
            misses=self.window.misses_in_window + 1,
            last_good_data=self.last_good_data,
        )
        spans = self.sim.spans
        exc_span = None
        if spans is not None:
            # Spans the timer expiry -> end of handling, so the critical
            # path of a recovered activation charges detection + handler
            # time to the "exception" category.
            exc_span = spans.begin(
                f"syncmon.exception:{self.segment.name}",
                "exception",
                parent=parent if parent is not None else spans.current,
                start=span_begin,
                segment=self.segment.name,
                n=n,
            )
            prev_ctx = spans.current
            spans.current = exc_span.context
        recovered = handle_remote_exception(
            self.handler,
            context,
            issue_receive=lambda data: self._issue_receive(n, data),
            propagate_exception=lambda: self._propagate(n),
        )
        if exc_span is not None:
            spans.current = prev_ctx
            exc_span.attrs["recovered"] = recovered
            exc_span.attrs["entry_latency"] = entered_at - nominal
            spans.end(exc_span)
        self.window.record(not recovered)
        outcome = Outcome.RECOVERED if recovered else Outcome.MISS
        start_ts = nominal - self.segment.d_mon  # the nominal start instant
        self.latencies.append((n, entered_at - start_ts, outcome))
        for runtime in self.reporters:
            runtime.report(
                self.segment.name,
                n,
                outcome,
                latency=entered_at - start_ts,
                detection_latency=entered_at - nominal,
            )
            runtime.report_exception(exception)
        if self.sim.tracing_active:
            self.sim.emit_trace(
                "syncmon.exception",
                segment=self.segment.name,
                n=n,
                recovered=recovered,
                entry_latency=entered_at - nominal,
            )

    def _issue_receive(self, n: int, data: Any) -> None:
        sample = Sample(
            topic=self.reader.topic,
            data=data,
            source_timestamp=self.ecu.now(),
            sequence_number=n,
            key=self.key,
            recovered=True,
        )
        self._issuing = True
        try:
            self.reader.issue_receive(sample)
        finally:
            self._issuing = False

    def _propagate(self, n: int) -> None:
        for runtime in self.next_local:
            runtime.post_error_propagation(n)

    @property
    def armed(self) -> bool:
        """True while the timeout timer is pending."""
        return self._timer.armed

    def arm(self, activation: int, deadline_local: int) -> None:
        """Externally (re)arm the timeout for *activation*.

        The monitor normally arms itself from the sender timestamp of
        each arriving sample, which leaves a cold-start gap: a sensor
        that is silent from the very first activation never arms the
        timer and is never detected.  A watchdog (see
        :class:`repro.faults.degradation.MonitorWatchdog`) closes the
        gap by calling this with a local-clock deadline of its choosing.
        """
        self.awaiting = activation
        self.deadline_local = deadline_local
        self._timer.start_at(self._to_sim_time(deadline_local))
        if self.sim.tracing_active:
            self.sim.emit_trace(
                "syncmon.rearmed",
                segment=self.segment.name,
                n=activation,
                deadline=deadline_local,
            )

    def stop(self) -> None:
        """Disarm the monitor's timer (end of experiment)."""
        self._timer.cancel()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SyncRemoteMonitor {self.segment.name} awaiting={self.awaiting}>"


KeyFn = Callable[[Sample], Optional[str]]


class KeyedSyncMonitorGroup:
    """One synchronization-based monitor per DDS instance key.

    The paper (Sec. IV-B2): "for multiple communication partners on the
    same topic, multiple monitors have to be instantiated, and
    differentiated based on delivered DDS topic keys".  This group
    installs a single receive filter on the reader and demultiplexes
    samples to lazily created per-key :class:`SyncRemoteMonitor`
    instances that share all configuration.

    Parameters mirror :class:`SyncRemoteMonitor`; ``key_fn`` extracts
    the instance key (defaults to ``sample.key``, falling back to the
    writer GUID so unkeyed multi-writer topics still demux correctly).
    """

    def __init__(
        self,
        segment: Segment,
        reader: DataReader,
        period: int,
        handler: Optional[ExceptionHandler] = None,
        mk: MKConstraint = MKConstraint(0, 1),
        context: TimeoutContext = TimeoutContext.MONITOR_THREAD,
        monitor_thread: Optional[MonitorThread] = None,
        next_local: Optional[LocalSegmentRuntime] = None,
        activation_fn: Optional[ActivationFn] = None,
        key_fn: Optional[KeyFn] = None,
    ):
        self.base_segment = segment
        self.reader = reader
        self.period = period
        self.handler = handler
        self.mk = mk
        self.context = context
        self.monitor_thread = monitor_thread
        self.next_local = next_local
        self.activation_fn = activation_fn
        self.key_fn = key_fn or self._default_key
        self.monitors: dict = {}
        reader.receive_filters.append(self._receive_filter)

    @staticmethod
    def _default_key(sample: Sample) -> Optional[str]:
        if sample.key is not None:
            return sample.key
        return sample.writer_id or None

    def monitor_for(self, key: Optional[str]) -> SyncRemoteMonitor:
        """Return (creating on first use) the monitor of *key*."""
        monitor = self.monitors.get(key)
        if monitor is None:
            named = Segment(
                name=f"{self.base_segment.name}[{key}]",
                kind=self.base_segment.kind,
                start=self.base_segment.start,
                end=self.base_segment.end,
                d_mon=self.base_segment.d_mon,
                d_ex=self.base_segment.d_ex,
            )
            monitor = SyncRemoteMonitor(
                named,
                self.reader,
                period=self.period,
                handler=self.handler,
                mk=self.mk,
                context=self.context,
                monitor_thread=self.monitor_thread,
                next_local=self.next_local,
                activation_fn=self.activation_fn,
                key=key,
                attach=False,
            )
            self.monitors[key] = monitor
        return monitor

    def _receive_filter(self, sample: Sample) -> bool:
        return self.monitor_for(self.key_fn(sample))._receive_filter(sample)

    def stop(self) -> None:
        """Disarm every per-key monitor."""
        for monitor in self.monitors.values():
            monitor.stop()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<KeyedSyncMonitorGroup {self.base_segment.name} "
            f"keys={sorted(map(str, self.monitors))}>"
        )


class InterArrivalMonitor:
    """Inter-arrival monitoring (the DDS deadline-QoS baseline).

    A timer is (re)armed at every arrival with ``t_max_ia``, the maximum
    allowed time between consecutive end events.  Expiry raises a
    violation *not attributable to a specific activation* -- the core
    deficiency the paper identifies: only suitable for m = 0, blind to
    consecutive lateness that stays under ``t_max_ia`` per hop even as
    absolute latency grows without bound.
    """

    def __init__(
        self,
        reader: DataReader,
        t_max_ia: int,
        context: TimeoutContext = TimeoutContext.MIDDLEWARE,
        monitor_thread: Optional[MonitorThread] = None,
        rearm_on_expiry: bool = False,
    ):
        if t_max_ia <= 0:
            raise ValueError("t_max_ia must be positive")
        if context is TimeoutContext.MONITOR_THREAD and monitor_thread is None:
            raise ValueError(
                "monitor_thread is required for TimeoutContext.MONITOR_THREAD"
            )
        self.reader = reader
        self.t_max_ia = int(t_max_ia)
        self.context = context
        self.monitor_thread = monitor_thread
        self.rearm_on_expiry = rearm_on_expiry
        self.sim = reader.participant.sim
        self.ecu = reader.participant.ecu
        self._timer = Timer(
            self.sim, self._on_timer_expired, name=f"iamon:{reader.guid}"
        )
        self.arrivals: List[int] = []
        #: (expiry_local_time, handler_entry_local_time) pairs.
        self.detections: List[Tuple[int, int]] = []
        self.on_violation: Optional[Callable[[int], None]] = None
        reader.on_receive_hooks.append(self._on_arrival)

    def _on_arrival(self, sample: Sample) -> None:
        now_local = self.ecu.now()
        self.arrivals.append(now_local)
        self._timer.start(self.t_max_ia)

    def _on_timer_expired(self) -> None:
        nominal = self.ecu.now()
        if self.rearm_on_expiry:
            self._timer.start(self.t_max_ia)
        if self.context is TimeoutContext.MIDDLEWARE:
            self.reader.participant.post_middleware_event(
                self._handle_violation, nominal
            )
        else:
            assert self.monitor_thread is not None
            self.monitor_thread.forward(lambda: self._handle_violation(nominal))

    def _handle_violation(self, nominal: int) -> None:
        entered_at = self.ecu.now()
        self.detections.append((nominal, entered_at))
        if self.sim.tracing_active:
            self.sim.emit_trace(
                "iamon.violation", reader=self.reader.guid, nominal=nominal
            )
        if self.on_violation is not None:
            self.on_violation(nominal)

    def stop(self) -> None:
        """Disarm the monitor's timer."""
        self._timer.cancel()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<InterArrivalMonitor {self.reader.guid} t_max={self.t_max_ia}>"
