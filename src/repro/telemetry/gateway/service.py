"""The fleet gateway: a long-running front end over the uplink ingestor.

:class:`FleetGateway` is what the passive
:class:`~repro.telemetry.uplink.ingest.UplinkIngestor` becomes when it
has to defend itself: a connection front end over the deterministic
in-process channel (the served socket transport in
:mod:`repro.telemetry.gateway.socket_server` is a thin adapter over
exactly this object) that adds

- a **shared-secret handshake** (HELLO -> WELCOME / REJECT ``auth``):
  data frames from sources without a live session are answered with
  REJECT ``hello`` -- which is also how clients discover a gateway
  crash and re-handshake;
- **per-source token-bucket rate limiting** (REJECT ``rate`` with a
  deterministic ``retry_after``);
- a **bounded per-connection receive window** with explicit
  backpressure: every ack advertises the remaining window, an intake
  overflow answers with a window-update ack instead of silently
  dropping the frame;
- the **overload ladder** (:mod:`repro.telemetry.gateway.overload`):
  under backlog pressure the gateway sheds records by traffic class --
  dashboards first, alert-bearing telemetry never -- each shed seq
  settled in dedup, announced in the next ack's cumulative ``shed``
  list, and counted by class.

Processing is two-phase per virtual step, which is also the batching
that makes the pipelined path fast: :meth:`handle_payload` only
validates and queues (the frame header is decoded here, once);
:meth:`step` is the unit of work -- it drains up to
``drain_records_per_step`` records through the ingestor with **one**
store fold, **one** log sync and **one coalesced ack per
source**.

Crash semantics: everything except the ingestor's journal is soft
state.  :meth:`recover` rebuilds the ingestor (replay through
dedup), comes back with no sessions and an empty backlog, and the
protocol heals: clients re-handshake on REJECT ``hello`` and
retransmit whatever the backlog lost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.telemetry.records import SEQ, SOURCE
from repro.telemetry.service import ServiceConfig, TelemetryService
from repro.telemetry.uplink.ingest import (
    IngestRecoveryReport,
    UplinkIngestor,
)
from repro.telemetry.uplink.transport import (
    HELLO_SCHEMA,
    decode_envelope,
    decode_frame_header,
    encode_reject,
    encode_welcome,
)
from repro.telemetry.gateway.overload import (
    CLASS_ALERT,
    CLASS_DASHBOARD,
    CLASS_TELEMETRY,
    OverloadLadder,
    OverloadPolicy,
    classify,
)
from repro.telemetry.gateway.ratelimit import RateLimitConfig, TokenBucket


@dataclass
class GatewayConfig:
    """Admission, backpressure, and overload policy of one gateway."""

    #: Shared secret every vehicle must present in HELLO.
    token: str = "fleet-secret"
    #: Per-connection receive window (records the gateway will buffer
    #: for one source before pushing back).
    recv_window: int = 128
    #: Records drained through the ingestor per step (the service
    #: capacity; backlog above it is what drives the overload ladder).
    drain_records_per_step: int = 256
    rate: RateLimitConfig = field(default_factory=RateLimitConfig)
    overload: OverloadPolicy = field(default_factory=OverloadPolicy)
    fsync: str = "rotate"
    checkpoint_every: Optional[int] = 8

    def __post_init__(self) -> None:
        if self.recv_window < 1:
            raise ValueError("recv_window must be >= 1")
        if self.drain_records_per_step < 1:
            raise ValueError("drain_records_per_step must be >= 1")


class FleetGateway:
    """Sessions + admission + backpressure over an UplinkIngestor."""

    def __init__(
        self,
        service: TelemetryService,
        directory: Path,
        config: Optional[GatewayConfig] = None,
        _ingestor: Optional[UplinkIngestor] = None,
    ):
        self.config = config or GatewayConfig()
        self.service = service
        self.directory = Path(directory)
        self.ingestor = _ingestor if _ingestor is not None else UplinkIngestor(
            service, self.directory, fsync=self.config.fsync,
            checkpoint_every=self.config.checkpoint_every,
        )
        self.ingestor.on_shed_settled = self._note_shed
        self.ladder = OverloadLadder(self.config.overload)
        #: source -> client life presented in HELLO (a live session).
        self.sessions: Dict[str, int] = {}
        self.buckets: Dict[str, TokenBucket] = {}
        #: FIFO intake across sources: ``(payload, decoded header)``.
        self._backlog: Deque[Tuple[str, dict]] = deque()
        self.backlog_records = 0
        self._backlog_by_source: Dict[str, int] = {}
        #: Cumulative shed seqs per source, announced on every ack so a
        #: lost ack can never turn a shed record into a silent drop.
        self._shed: Dict[str, Set[int]] = {}
        #: Traffic class of each nominated seq, so the settle callback
        #: (seqs only) can keep per-class counts honest.
        self._nominated_class: Dict[Tuple[str, int], str] = {}
        #: Control/ack envelopes awaiting the downlink:
        #: ``(source, payload)``.
        self._outbox: List[Tuple[str, str]] = []
        # Counters (never-silent accounting).
        self.hellos = 0
        self.welcomes = 0
        self.auth_rejects = 0
        self.session_rejects = 0
        self.rate_rejects = 0
        self.window_rejects = 0
        self.frames_queued = 0
        self.records_queued = 0
        self.acks_out = 0
        self.corrupt_payloads = 0
        self.shed_by_class: Dict[str, int] = {
            CLASS_DASHBOARD: 0, CLASS_TELEMETRY: 0, CLASS_ALERT: 0,
        }

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: Path,
        config: Optional[GatewayConfig] = None,
        service_config: Optional[ServiceConfig] = None,
    ) -> Tuple["FleetGateway", IngestRecoveryReport]:
        """Rebuild after a crash: durable ingest state via WAL replay,
        sessions/backlog/buckets start empty (the protocol re-fills
        them -- REJECT ``hello`` triggers re-handshakes)."""
        config = config or GatewayConfig()
        ingestor, report = UplinkIngestor.recover(
            directory, service_config=service_config, fsync=config.fsync,
            checkpoint_every=config.checkpoint_every,
        )
        gateway = cls(ingestor.service, directory, config,
                      _ingestor=ingestor)
        return gateway, report

    # ------------------------------------------------------------------
    def _note_shed(self, source: str, seqs: List[int]) -> None:
        """Ingestor callback: these seqs settled as shed (first time)."""
        self._shed.setdefault(source, set()).update(seqs)
        for seq in seqs:
            traffic_class = self._nominated_class.pop(
                (source, seq), CLASS_TELEMETRY
            )
            self.shed_by_class[traffic_class] += 1

    def _bucket(self, source: str, now: int) -> TokenBucket:
        bucket = self.buckets.get(source)
        if bucket is None:
            bucket = self.buckets[source] = TokenBucket(
                self.config.rate, now
            )
        return bucket

    def advertised_window(self, source: str) -> int:
        """Receive window remaining for one source (explicit
        backpressure: rides every ack and WELCOME)."""
        used = self._backlog_by_source.get(source, 0)
        return max(0, self.config.recv_window - used)

    def _emit(self, source: str, payload: str) -> None:
        self._outbox.append((source, payload))

    def poll_outbox(self) -> List[Tuple[str, str]]:
        """Drain queued control/ack envelopes for the downlink."""
        out = self._outbox
        self._outbox = []
        return out

    def idle(self) -> bool:
        """No queued intake and nothing waiting on the downlink."""
        return self.backlog_records == 0 and not self._outbox

    # ------------------------------------------------------------------
    def handle_payload(self, payload: str, now: int) -> None:
        """Phase one: validate and queue one uplink datagram.

        Every refusal is an explicit, counted reply -- the only silent
        outcome is a corrupt datagram (counted; the client's retransmit
        timer covers it)."""
        if not isinstance(payload, str):
            self.corrupt_payloads += 1
            return
        if "\n" in payload:
            self._handle_frame(payload, now)
            return
        doc = decode_envelope(payload)
        if doc is None:
            self.corrupt_payloads += 1
            return
        if doc.get("schema") == HELLO_SCHEMA and isinstance(
            doc.get("source"), str
        ):
            self._handle_hello(doc, now)
            return
        self.corrupt_payloads += 1

    def _handle_hello(self, doc: dict, now: int) -> None:
        self.hellos += 1
        source = doc["source"]
        if doc.get("token") != self.config.token:
            self.auth_rejects += 1
            self._emit(source, encode_reject(source, "auth"))
            return
        self.sessions[source] = int(doc.get("life", 0))
        self.welcomes += 1
        self._emit(
            source,
            encode_welcome(source, self.advertised_window(source)),
        )

    def _handle_frame(self, payload: str, now: int) -> None:
        header = decode_frame_header(payload)
        if header is None:
            self.corrupt_payloads += 1
            return
        source, count = header["source"], header["count"]
        if source not in self.sessions:
            self.session_rejects += 1
            self._emit(source, encode_reject(source, "hello"))
            return
        bucket = self._bucket(source, now)
        # Empty floor-probe frames are free; record-bearing frames pay
        # one token per record.
        if count and not bucket.take(count, now):
            self.rate_rejects += 1
            self._emit(
                source,
                encode_reject(source, "rate",
                              retry_after=bucket.retry_after(count, now)),
            )
            return
        used = self._backlog_by_source.get(source, 0)
        if used + count > self.config.recv_window:
            # Window overrun: answer with a window update (an ack at
            # the current watermark), never a silent drop.
            self.window_rejects += 1
            self._emit(
                source,
                self.ingestor.ack_payload(
                    source, header["frame_id"],
                    shed=self._shed_list(source),
                    window=self.advertised_window(source),
                ),
            )
            self.acks_out += 1
            return
        self._backlog.append((payload, header))
        self._backlog_by_source[source] = used + count
        self.backlog_records += count
        self.frames_queued += 1
        self.records_queued += count

    # ------------------------------------------------------------------
    def _shed_list(self, source: str) -> Optional[List[int]]:
        shed = self._shed.get(source)
        return sorted(shed) if shed else None

    def _shed_hook(self, rows: List[list]) -> Set[int]:
        """Overload nomination: seqs of the rows whose class the ladder
        sheds."""
        nominated: Set[int] = set()
        for row in rows:
            traffic_class = classify(row)
            if self.ladder.sheds(traffic_class):
                seq = row[SEQ]
                nominated.add(seq)
                self._nominated_class[(row[SOURCE], seq)] = traffic_class
        return nominated

    def step(self, now: int) -> int:
        """Phase two: drain the backlog through the ingestor.

        One store apply, one log sync and one coalesced ack per source,
        however many frames were drained -- this is the batching that
        buys the pipelined path its throughput."""
        self.ladder.observe(self.backlog_records, now)
        shed_hook = self._shed_hook if self.ladder.shed_classes else None
        budget = self.config.drain_records_per_step
        drained = 0
        acked: Dict[str, int] = {}
        while self._backlog:
            payload, header = self._backlog[0]
            source, count = header["source"], header["count"]
            if drained and drained + count > budget:
                break
            self._backlog.popleft()
            self._backlog_by_source[source] = max(
                0, self._backlog_by_source.get(source, 0) - count
            )
            self.backlog_records = max(0, self.backlog_records - count)
            drained += count
            if self.ingestor.ingest_frame(
                payload, now, sync=False, shed=shed_hook, header=header
            ) is not None:
                acked[source] = header["frame_id"]
        if acked:
            self.ingestor.flush()
            self.ingestor.log.sync()
            for source, frame_id in sorted(acked.items()):
                self._emit(
                    source,
                    self.ingestor.ack_payload(
                        source, frame_id,
                        shed=self._shed_list(source),
                        window=self.advertised_window(source),
                    ),
                )
                self.acks_out += 1
        return drained

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "mode": self.ladder.mode.value,
            "sessions": len(self.sessions),
            "backlog_records": self.backlog_records,
            "hellos": self.hellos,
            "welcomes": self.welcomes,
            "auth_rejects": self.auth_rejects,
            "session_rejects": self.session_rejects,
            "rate_rejects": self.rate_rejects,
            "window_rejects": self.window_rejects,
            "frames_queued": self.frames_queued,
            "records_queued": self.records_queued,
            "acks_out": self.acks_out,
            "corrupt_payloads": self.corrupt_payloads,
            "shed_by_class": dict(self.shed_by_class),
            "shed_total": sum(self.shed_by_class.values()),
            "ladder": self.ladder.to_json(),
            "buckets": {
                source: bucket.to_json()
                for source, bucket in sorted(self.buckets.items())
            },
            "ingest": self.ingestor.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FleetGateway mode={self.ladder.mode.value} "
            f"sessions={len(self.sessions)} "
            f"backlog={self.backlog_records}>"
        )
