"""The DDS domain: endpoint matching and transport wiring.

Routing rules:

- Writer and reader on the **same ECU**: delivered over loopback with a
  small configurable latency, directly in kernel context.
- Writer and reader on **different ECUs**: the sample is framed and sent
  over the registered :class:`~repro.network.link.Link`; on arrival it
  passes through the destination ECU's ksoftirq thread
  (:class:`~repro.network.stack.NetworkStack`) before reaching the
  reader.  RELIABLE endpoints retry lost frames with a delay.

Matching respects requested-vs-offered QoS compatibility.  Readers and
writers may join in any order.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.dds.qos import ReliabilityKind
from repro.dds.topic import Sample
from repro.network.link import Frame, Link
from repro.network.stack import NetworkStack
from repro.sim.cpu import Ecu
from repro.sim.kernel import Simulator, usec

if TYPE_CHECKING:  # pragma: no cover
    from repro.dds.participant import DomainParticipant
    from repro.dds.reader import DataReader
    from repro.dds.writer import DataWriter

#: Extra bytes added by RTPS framing on the wire.
RTPS_OVERHEAD_BYTES = 64


class DdsDomain:
    """A DDS domain spanning one or more ECUs."""

    def __init__(self, sim: Simulator, local_latency: int = usec(30)):
        self.sim = sim
        self.local_latency = int(local_latency)
        self._local_labels: Dict[str, str] = {}
        self.participants: List["DomainParticipant"] = []
        self._writers: Dict[str, List["DataWriter"]] = {}
        self._readers: Dict[str, List["DataReader"]] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._stacks: Dict[str, NetworkStack] = {}
        self.incompatible_matches = 0
        self.frames_dropped = 0

    # ------------------------------------------------------------------
    # Infrastructure wiring
    # ------------------------------------------------------------------
    def create_participant(
        self,
        ecu: Ecu,
        name: str,
        middleware_priority: int = 30,
        event_entry_cost: int = usec(3),
    ) -> "DomainParticipant":
        """Create a participant for one process on *ecu*."""
        from repro.dds.participant import DomainParticipant

        participant = DomainParticipant(
            self,
            ecu,
            name,
            middleware_priority=middleware_priority,
            event_entry_cost=event_entry_cost,
        )
        self.participants.append(participant)
        return participant

    def add_link(self, src: Ecu, dst: Ecu, link: Link) -> None:
        """Register the unidirectional link used for src -> dst samples."""
        self._links[(src.name, dst.name)] = link

    def register_stack(self, ecu: Ecu, stack: NetworkStack) -> None:
        """Register the receive-side network stack of *ecu*."""
        self._stacks[ecu.name] = stack

    # ------------------------------------------------------------------
    # Endpoint registration (called by the participant factories)
    # ------------------------------------------------------------------
    def _register_writer(self, writer: "DataWriter") -> None:
        self._writers.setdefault(writer.topic.name, []).append(writer)

    def _register_reader(self, reader: "DataReader") -> None:
        self._readers.setdefault(reader.topic.name, []).append(reader)
        ecu = reader.participant.ecu
        stack = self._stacks.get(ecu.name)
        if stack is not None:
            stack.register_port(
                self._port_name(reader),
                lambda frame: reader._receive(frame.payload),
            )

    @staticmethod
    def _port_name(reader: "DataReader") -> str:
        return f"dds/{reader.topic.name}/{reader.guid}"

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, writer: "DataWriter", sample: Sample) -> None:
        for reader in self._readers.get(writer.topic.name, []):
            if not reader.qos.compatible_with(writer.qos):
                self.incompatible_matches += 1
                continue
            src = writer.participant.ecu
            dst = reader.participant.ecu
            if src.name == dst.name:
                self._deliver_local(reader, sample)
            else:
                self._deliver_remote(writer, reader, sample)

    def _deliver_local(self, reader: "DataReader", sample: Sample) -> None:
        topic_name = sample.topic.name
        label = self._local_labels.get(topic_name)
        if label is None:
            label = self._local_labels[topic_name] = f"dds:local:{topic_name}"
        self.sim.schedule_after(
            self.local_latency, reader._receive, sample, label=label
        )

    def _deliver_remote(
        self,
        writer: "DataWriter",
        reader: "DataReader",
        sample: Sample,
        attempt: int = 0,
    ) -> None:
        src = writer.participant.ecu
        dst = reader.participant.ecu
        link = self._links.get((src.name, dst.name))
        if link is None:
            raise RuntimeError(
                f"no link registered from {src.name} to {dst.name} "
                f"(topic {writer.topic.name})"
            )
        stack = self._stacks.get(dst.name)
        if stack is None:
            raise RuntimeError(f"no network stack registered on {dst.name}")
        frame = Frame(
            payload=sample,
            size_bytes=sample.size_bytes + RTPS_OVERHEAD_BYTES,
            src=src.name,
            dst=dst.name,
            send_timestamp=sample.source_timestamp,
        )
        port = self._port_name(reader)
        delivered = link.transmit(frame, lambda f: stack.deliver(port, f))
        if delivered:
            return
        # Frame lost on the wire.
        reliable = (
            writer.qos.reliability is ReliabilityKind.RELIABLE
            and reader.qos.reliability is ReliabilityKind.RELIABLE
        )
        if reliable and attempt < writer.qos.max_retransmits:
            self.sim.schedule_after(
                writer.qos.retransmit_delay,
                self._deliver_remote,
                writer,
                reader,
                sample,
                attempt + 1,
                label=f"dds:retransmit:{sample.topic.name}",
            )
        else:
            self.frames_dropped += 1
            if self.sim.tracing_active:
                self.sim.emit_trace(
                    "dds.sample_dropped",
                    topic=sample.topic.name,
                    seq=sample.sequence_number,
                    attempts=attempt + 1,
                )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<DdsDomain participants={len(self.participants)} "
            f"topics={sorted(set(self._writers) | set(self._readers))}>"
        )
