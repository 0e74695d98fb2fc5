"""DataReader: the subscription side of a topic.

``_receive()`` is the *receive event* of the paper's system model.  The
instrumentation surfaces mirror the writer's:

- ``receive_filters`` may discard a sample before it reaches the
  application -- the remote monitor uses this to drop "messages that
  arrive too late, i.e. after the corresponding exception" so the
  constant-rate assumption and (m,k) bookkeeping stay sound.
- ``on_receive_hooks`` see every accepted sample (tracer, monitors).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, TYPE_CHECKING

from repro.dds.qos import DEFAULT_QOS, HistoryKind, QosProfile
from repro.dds.topic import Sample, Topic

if TYPE_CHECKING:  # pragma: no cover
    from repro.dds.participant import DomainParticipant

ReceiveHook = Callable[[Sample], None]
ReceiveFilter = Callable[[Sample], bool]


class ReaderListener:
    """Application-facing callbacks (subclass and override)."""

    def on_data_available(self, reader: "DataReader", sample: Sample) -> None:
        """A sample was delivered to the reader."""


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

    # ------------------------------------------------------------------
    # Delivery path (called by the domain / network stack / recovery)
    # ------------------------------------------------------------------
    def _receive(self, sample: Sample) -> None:
        sim = self.participant.sim
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

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DataReader {self.guid} topic={self.topic.name}>"
