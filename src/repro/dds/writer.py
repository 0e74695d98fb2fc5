"""DataWriter: the publication side of a topic.

``write()`` is the *publication event* of the paper's system model.  Two
instrumentation surfaces are exposed:

- ``publish_filters`` run first and may *suppress* the publication --
  this is how the local-segment monitor implements "after an exception
  has been handled, the next publication event will be skipped" (the
  shared skip counter evaluated by the publisher).
- ``on_publish_hooks`` run for publications that actually happen; the
  tracer and the local monitor's end-event posting attach here.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.dds.qos import DEFAULT_QOS, QosProfile
from repro.dds.topic import Sample, Topic

if TYPE_CHECKING:  # pragma: no cover
    from repro.dds.participant import DomainParticipant

PublishHook = Callable[[Sample], None]
PublishFilter = Callable[[Sample], bool]


class DataWriter:
    """Publishes samples of one topic into the domain."""

    def __init__(
        self,
        participant: "DomainParticipant",
        topic: Topic,
        qos: Optional[QosProfile] = None,
        writer_id: Optional[str] = None,
    ):
        self.participant = participant
        self.topic = topic
        self.qos = qos or DEFAULT_QOS
        self.guid = writer_id or (
            f"{participant.guid}/w{participant.sim.next_entity_id('writer')}"
        )
        self._seq = itertools.count()
        #: Return False to suppress the publication (monitor skip logic).
        self.publish_filters: List[PublishFilter] = []
        #: Called for every sample that is actually published.
        self.on_publish_hooks: List[PublishHook] = []
        self.published = 0
        self.suppressed = 0

    def write(
        self,
        data: Any,
        source_timestamp: Optional[int] = None,
        key: Optional[str] = None,
        recovered: bool = False,
    ) -> Optional[Sample]:
        """Publish *data*; return the sample, or None if suppressed.

        The source timestamp defaults to the *local clock* of the hosting
        ECU -- under PTP it is globally meaningful to within epsilon.
        """
        if source_timestamp is None:
            source_timestamp = self.participant.ecu.now()
        sim = self.participant.sim
        sample = Sample(
            topic=self.topic,
            data=data,
            source_timestamp=source_timestamp,
            sequence_number=next(self._seq),
            writer_id=self.guid,
            key=key,
            recovered=recovered,
        )
        for publish_filter in self.publish_filters:
            if not publish_filter(sample):
                self.suppressed += 1
                if sim.tracing_active:
                    sim.emit_trace(
                        "dds.publish_suppressed",
                        topic=self.topic.name,
                        writer=self.guid,
                        seq=sample.sequence_number,
                    )
                return None
        self.published += 1
        if sim.tracing_active:
            sim.emit_trace(
                "dds.publish",
                topic=self.topic.name,
                writer=self.guid,
                seq=sample.sequence_number,
                ts=sample.source_timestamp,
            )
        spans = sim.spans
        if spans is not None:
            # The publication instant: chains are anchored at these, and
            # downstream transport spans parent to them via sample.ctx.
            pub = spans.instant(
                "dds.publish",
                "publish",
                topic=self.topic.name,
                writer=self.guid,
                seq=sample.sequence_number,
            )
            frame = getattr(data, "frame_index", None)
            if frame is not None:
                pub.attrs["frame"] = frame
            if recovered:
                pub.attrs["recovered"] = True
            sample.ctx = pub.context
        for hook in self.on_publish_hooks:
            hook(sample)
        self.participant.domain._route(self, sample)
        return sample

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DataWriter {self.guid} topic={self.topic.name}>"
