"""DataReader: the subscription side of a topic.

``_receive()`` is the *receive event* of the paper's system model.  The
instrumentation surfaces mirror the writer's:

- ``receive_filters`` may discard a sample before it reaches the
  application -- the remote monitor uses this to drop "messages that
  arrive too late, i.e. after the corresponding exception" so the
  constant-rate assumption and (m,k) bookkeeping stay sound.
- ``on_receive_hooks`` see every accepted sample (tracer, monitors).

Deadline QoS (the inter-arrival baseline) is implemented here: a timer
re-armed on every arrival; expiry posts the ``on_requested_deadline_missed``
routine onto the *middleware event thread*, so its entry latency is the
scheduling-dependent quantity of the paper's Fig. 12.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, TYPE_CHECKING

from repro.dds.qos import DEFAULT_QOS, HistoryKind, QosProfile
from repro.dds.topic import Sample, Topic
from repro.sim.timers import Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.dds.participant import DomainParticipant

ReceiveHook = Callable[[Sample], None]
ReceiveFilter = Callable[[Sample], bool]


class ReaderListener:
    """Application-facing callbacks (subclass and override)."""

    def on_data_available(self, reader: "DataReader", sample: Sample) -> None:
        """A sample was delivered to the reader."""

    def on_requested_deadline_missed(
        self, reader: "DataReader", key: Optional[str], total_count: int
    ) -> None:
        """The deadline QoS detected a missed inter-arrival deadline."""

    def on_sample_lifespan_expired(self, reader: "DataReader", sample: Sample) -> None:
        """A sample was dropped because it outlived its lifespan."""

    def on_liveliness_changed(
        self, reader: "DataReader", writer_id: str, alive: bool
    ) -> None:
        """A matched writer's liveliness was gained (True) or lost."""


class DataReader:
    """Receives samples of one topic from the domain."""

    def __init__(
        self,
        participant: "DomainParticipant",
        topic: Topic,
        qos: Optional[QosProfile] = None,
        listener: Optional[ReaderListener] = None,
    ):
        self.participant = participant
        self.topic = topic
        self.qos = qos or DEFAULT_QOS
        self.listener = listener or ReaderListener()
        self.guid = f"{participant.guid}/r{participant.sim.next_entity_id('reader')}"
        #: Return False to discard the sample before delivery.
        self.receive_filters: List[ReceiveFilter] = []
        #: Called for every accepted sample, before the listener.
        self.on_receive_hooks: List[ReceiveHook] = []
        self.history: Deque[Sample] = deque()
        self.received = 0
        self.filtered = 0
        self.lifespan_expired = 0
        self.deadline_missed_total = 0
        self._deadline_timers: Dict[Optional[str], Timer] = {}
        self._liveliness_timers: Dict[str, Timer] = {}
        #: writer_id -> currently-considered-alive flag.
        self.writer_alive: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    # Delivery path (called by the domain / network stack / recovery)
    # ------------------------------------------------------------------
    def _receive(self, sample: Sample) -> None:
        sim = self.participant.sim
        now_local = self.participant.ecu.now()
        if self.qos.lifespan is not None:
            age = now_local - sample.source_timestamp
            if age > self.qos.lifespan:
                self.lifespan_expired += 1
                if sim.tracing_active:
                    sim.emit_trace(
                        "dds.lifespan_expired",
                        topic=self.topic.name,
                        reader=self.guid,
                        seq=sample.sequence_number,
                    )
                self.listener.on_sample_lifespan_expired(self, sample)
                return
        if self.qos.deadline is not None:
            self._arm_deadline(sample.key)
        if self.qos.liveliness_lease is not None and sample.writer_id:
            # Data counts as a liveliness assertion, even if later
            # filtered: the writer is evidently alive.
            self.assert_writer_liveliness(sample.writer_id)
        for receive_filter in self.receive_filters:
            if not receive_filter(sample):
                self.filtered += 1
                if sim.tracing_active:
                    sim.emit_trace(
                        "dds.receive_filtered",
                        topic=self.topic.name,
                        reader=self.guid,
                        seq=sample.sequence_number,
                    )
                return
        self.received += 1
        if sim.tracing_active:
            sim.emit_trace(
                "dds.receive",
                topic=self.topic.name,
                reader=self.guid,
                seq=sample.sequence_number,
                ts=sample.source_timestamp,
            )
        spans = sim.spans
        if spans is not None:
            # One transport span per accepted delivery, covering
            # publication instant -> this receive (sim time on both
            # ends, so the duration is the true wire+stack latency).
            # Recovered data injected via issue_receive has no
            # publication span: it parents to the ambient context,
            # i.e. the exception span that issued it.
            parent = sample.ctx
            start = None
            if parent is not None:
                origin = spans.get(parent.span_id)
                if origin is not None:
                    start = origin.end
            else:
                parent = spans.current
            tspan = spans.begin(
                "dds.transport",
                "network",
                parent=parent,
                start=start,
                topic=self.topic.name,
                reader=self.guid,
                seq=sample.sequence_number,
            )
            frame = getattr(sample.data, "frame_index", None)
            if frame is not None:
                tspan.attrs["frame"] = frame
            if sample.recovered:
                tspan.attrs["recovered"] = True
            spans.end(tspan)
            # Hooks, monitors and the executor enqueue all run inside
            # this delivery: hand them the transport context.
            spans.current = tspan.context
        self._store(sample)
        for hook in self.on_receive_hooks:
            hook(sample)
        self.listener.on_data_available(self, sample)

    def issue_receive(self, sample: Sample) -> None:
        """Inject *sample* into the delivery path (recovery handlers).

        This is the ``issue_receive(data)`` of the paper's Algorithm 1:
        a remote-segment recovery provides substitute data to the
        subsequent local segment as if it had arrived.
        """
        self._receive(sample)

    def _store(self, sample: Sample) -> None:
        self.history.append(sample)
        if self.qos.history is HistoryKind.KEEP_LAST:
            while len(self.history) > self.qos.history_depth:
                self.history.popleft()

    def take(self) -> Optional[Sample]:
        """Pop the oldest sample from the reader cache (polling access)."""
        if self.history:
            return self.history.popleft()
        return None

    # ------------------------------------------------------------------
    # Deadline QoS (inter-arrival monitoring)
    # ------------------------------------------------------------------
    def _arm_deadline(self, key: Optional[str]) -> None:
        timer = self._deadline_timers.get(key)
        if timer is None:
            timer = Timer(
                self.participant.sim,
                lambda key=key: self._deadline_expired(key),
                name=f"deadline:{self.guid}:{key}",
            )
            self._deadline_timers[key] = timer
        timer.start(self.qos.deadline)

    def _deadline_expired(self, key: Optional[str]) -> None:
        # Entry into the timeout routine happens on the middleware event
        # thread -- its scheduling latency is what Fig. 12 measures.
        self.deadline_missed_total += 1
        if self.participant.sim.tracing_active:
            self.participant.sim.emit_trace(
                "dds.deadline_expired",
                topic=self.topic.name,
                reader=self.guid,
                key=key,
            )
        self.participant.post_middleware_event(
            self.listener.on_requested_deadline_missed,
            self,
            key,
            self.deadline_missed_total,
        )
        # DDS semantics: the deadline keeps firing every period until a
        # new sample arrives.
        self._arm_deadline(key)

    # ------------------------------------------------------------------
    # Liveliness QoS
    # ------------------------------------------------------------------
    def assert_writer_liveliness(self, writer_id: str) -> None:
        """Refresh the lease of *writer_id* (data or explicit assertion).

        Fires ``on_liveliness_changed(alive=True)`` when the writer was
        previously unknown or considered dead.
        """
        if self.qos.liveliness_lease is None:
            return
        was_alive = self.writer_alive.get(writer_id)
        self.writer_alive[writer_id] = True
        timer = self._liveliness_timers.get(writer_id)
        if timer is None:
            timer = Timer(
                self.participant.sim,
                lambda w=writer_id: self._liveliness_lost(w),
                name=f"liveliness:{self.guid}:{writer_id}",
            )
            self._liveliness_timers[writer_id] = timer
        timer.start(self.qos.liveliness_lease)
        if was_alive is not True:
            self.participant.post_middleware_event(
                self.listener.on_liveliness_changed, self, writer_id, True
            )

    def _liveliness_lost(self, writer_id: str) -> None:
        self.writer_alive[writer_id] = False
        if self.participant.sim.tracing_active:
            self.participant.sim.emit_trace(
                "dds.liveliness_lost", reader=self.guid, writer=writer_id
            )
        self.participant.post_middleware_event(
            self.listener.on_liveliness_changed, self, writer_id, False
        )

    def cancel_liveliness(self) -> None:
        """Disarm all liveliness lease timers (shutdown)."""
        for timer in self._liveliness_timers.values():
            timer.cancel()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DataReader {self.guid} topic={self.topic.name}>"
