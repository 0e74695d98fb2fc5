"""Pipelined sliding-window ARQ over the WAL spooler.

:class:`WindowedUplinkClient` keeps up to ``window_frames``
multi-record frames in flight and overlaps their acks, so throughput is
bounded by the window rather than by one round trip per frame, while
preserving the invariants the fleet side depends on:

- **exactly-once ingest** -- every record travels as the exact
  CRC-framed WAL line the spool holds (see
  :func:`~repro.telemetry.uplink.transport.encode_frame`), and every
  retransmission re-offers seqs the dedup watermark absorbs;
- **the ledger law** -- ``offered == acked + spooled + evicted``
  (``+ shed`` when a gateway sheds under overload): records only leave
  the spool through a cumulative ack, an eviction, or a *counted* shed
  announcement;
- **the circuit breaker** -- consecutive timeouts of the *oldest*
  unacked frame (not of every frame in a burst) trip the breaker, and
  while HALF_OPEN exactly one designated probe frame may fly.

Frames arrive out of order, so the ingestor may not settle its dedup
window at a frame's highest seq (a lower frame may still be in
flight).  Instead every frame carries a **floor**: the lowest seq the
vehicle can still offer (the spool's oldest pending seq, which
evictions raise).  The ingestor advances its watermark to
``floor - 1`` and otherwise only through contiguous admission, so no
undelivered seq is ever declared settled.

Failure handling is per frame and in deterministic virtual steps:
per-frame retransmit timers with exponential backoff
(``backoff_base * 2^(n-1)``, capped) plus jitter drawn from the
client's seeded RNG stream, so a fleet of clients desynchronizes
identically on every run; **fast retransmit** of the oldest unacked
frame after ``dup_ack_threshold`` duplicate cumulative acks; and
selective acks (``sack``) that suppress retransmission of frames
already durable above the watermark.  After ``failure_threshold``
consecutive timeouts the circuit opens for ``cooldown`` steps (no sends
at all), which keeps a partitioned vehicle from hammering the link.

The client owns no durability: records live in the
:class:`~repro.telemetry.uplink.wal.WalSpooler` until acked, so a
client crash loses nothing -- a fresh client over the recovered spool
resumes exactly where the acks stopped.  It reads ``(seq, line)`` pairs
and hands its ``on_acked`` / ``on_shed`` hooks the released seqs.

Gateway sessions are optional: give the config a ``token`` and the
client performs the HELLO/WELCOME handshake first, honors advertised
receive windows (counted ``window_stalls`` when flow control blocks the
pipe -- explicit backpressure, never silent), partitions released
records into acked vs shed along the gateway's cumulative shed
announcements, and re-handshakes when a recovered gateway answers with
a ``hello`` reject.  Without a token the client speaks to a bare
:class:`~repro.telemetry.uplink.ingest.UplinkIngestor` unchanged.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

import numpy as np

from repro.telemetry.uplink.transport import (
    ACK_SCHEMA,
    REJECT_SCHEMA,
    WELCOME_SCHEMA,
    encode_frame,
    encode_hello,
)
from repro.telemetry.uplink.wal import WalSpooler


class CircuitState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class WindowedClientConfig:
    """Window/retry/breaker policy, in virtual steps."""

    #: Records per frame (a frame is one datagram).
    frame_records: int = 16
    #: Maximum unacked frames in flight (the ARQ window).
    window_frames: int = 8
    ack_timeout: int = 8
    backoff_base: int = 2
    backoff_max: int = 64
    failure_threshold: int = 4
    cooldown: int = 24
    #: Duplicate cumulative acks before fast retransmit.
    dup_ack_threshold: int = 3
    seed: int = 0
    #: Shared secret for the gateway handshake; ``None`` disables the
    #: session layer entirely (bare-ingestor mode).
    token: Optional[str] = None

    def __post_init__(self) -> None:
        if self.frame_records < 1:
            raise ValueError("frame_records must be >= 1")
        if self.window_frames < 1:
            raise ValueError("window_frames must be >= 1")
        if self.ack_timeout < 1:
            raise ValueError("ack_timeout must be >= 1")
        if self.backoff_base < 1 or self.backoff_max < self.backoff_base:
            raise ValueError("need 1 <= backoff_base <= backoff_max")
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        if self.dup_ack_threshold < 1:
            raise ValueError("dup_ack_threshold must be >= 1")


class _Frame:
    """One in-flight seq range ``[lo_seq, hi_seq]``."""

    __slots__ = ("frame_id", "lo_seq", "hi_seq", "count", "deadline",
                 "resend_at", "tries", "flying", "sacked")

    def __init__(self, frame_id: int, lo_seq: int, hi_seq: int, count: int,
                 deadline: int):
        self.frame_id = frame_id
        self.lo_seq = lo_seq
        self.hi_seq = hi_seq
        #: Records in the most recent transmission (flow-control unit).
        self.count = count
        self.deadline = deadline
        #: Earliest step a timed-out frame may retransmit.
        self.resend_at = 0
        self.tries = 1
        #: True while a transmission is out and the deadline is armed.
        self.flying = True
        #: Selectively acknowledged: durable fleet-side, skip
        #: retransmission, release on the cumulative ack.
        self.sacked = False


#: Handshake phases.  ``established`` is the resting state; tokenless
#: clients start (and stay) there.
_HS_ESTABLISHED = "established"
_HS_PENDING = "pending"
_HS_REJECTED = "rejected"


class WindowedUplinkClient:
    """Drains a :class:`WalSpooler` with a pipelined frame window."""

    def __init__(
        self,
        spooler: WalSpooler,
        send: Callable[[str, int], bool],
        config: Optional[WindowedClientConfig] = None,
        life: int = 0,
    ):
        self.spooler = spooler
        self.source = spooler.source
        self._send = send
        self.config = config or WindowedClientConfig()
        self.life = life
        # Deterministic jitter stream; ``life`` salts restarts so a
        # recovered client doesn't replay its predecessor's jitter.
        self._rng = np.random.default_rng(
            (self.config.seed * 0x9E3779B1
             + zlib.crc32(self.source.encode()) + life) & 0xFFFFFFFF
        )
        self.circuit = CircuitState.CLOSED
        #: Breaker transition log: ``(step, from, to, reason)``.
        self.transitions: List[Tuple[int, str, str, str]] = []
        self._reopen_at = 0
        self._probe_frame_id: Optional[int] = None
        self._flight: List[_Frame] = []
        self._next_send_at = 0
        self._next_frame_id = 0
        #: Highest seq ever put into a frame (new frames start above it).
        self._sent_through = spooler.ack_mark
        self.consecutive_failures = 0
        self.handshake = (
            _HS_ESTABLISHED if self.config.token is None else _HS_PENDING
        )
        self._hello_deadline: Optional[int] = None
        self._hello_tries = 0
        #: Advertised receive window in records (None: unlimited).
        self.peer_window: Optional[int] = None
        self._stalled = False
        self._last_ack_value: Optional[int] = None
        self._dup_count = 0
        #: Every seq the gateway ever announced as shed (cumulative).
        self.shed_announced: Set[int] = set()
        #: Called with the seqs a fresh ack released as *acked*.
        self.on_acked: Optional[Callable[[List[int]], None]] = None
        #: Called with the seqs a fresh ack released as *shed*.
        self.on_shed: Optional[Callable[[List[int]], None]] = None
        # Counters.
        self.frames_sent = 0
        self.records_sent = 0
        self.retransmits = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.acks = 0
        self.stale_acks = 0
        self.dup_acks = 0
        self.window_stalls = 0
        self.circuit_opens = 0
        self.probes = 0
        self.shed_records = 0
        self.hellos = 0
        self.rate_rejects = 0
        self.hello_rejects = 0
        self.floor_probes = 0
        self.auth_rejected = False

    # ------------------------------------------------------------------
    @property
    def inflight_records(self) -> int:
        return sum(frame.count for frame in self._flight)

    def idle(self) -> bool:
        """Nothing left to do (drained, or terminally rejected)."""
        if self.handshake == _HS_REJECTED:
            return True
        return not self._flight and self.spooler.pending == 0

    # ------------------------------------------------------------------
    def _transition(self, now: int, to: CircuitState, reason: str) -> None:
        self.transitions.append(
            (now, self.circuit.value, to.value, reason)
        )
        self.circuit = to

    def _open_circuit(self, now: int, reason: str) -> None:
        self._transition(now, CircuitState.OPEN, reason)
        self.circuit_opens += 1
        self._reopen_at = now + self.config.cooldown
        self._next_send_at = self._reopen_at
        self._probe_frame_id = None
        # Freeze every frame; they resume (probe first) after cooldown.
        for frame in self._flight:
            frame.flying = False
            frame.resend_at = self._reopen_at

    def _oldest_unacked(self) -> Optional[_Frame]:
        for frame in self._flight:
            if not frame.sacked:
                return frame
        return None

    # ------------------------------------------------------------------
    def _transmit(self, frame: _Frame, now: int) -> None:
        """(Re)send one frame from current spool state.

        Ranges hollowed out by eviction or shed announcements go out as
        empty floor-probe frames -- they still carry the floor, which
        is what lets the ingest watermark sweep past the gap and retire
        the frame.
        """
        lo, hi = frame.lo_seq, frame.hi_seq
        lines = [  # the still-pending, not-shed lines of the range
            line for seq, line in self.spooler.pending_entries(
                limit=hi - lo + 1, above_seq=lo - 1
            ) if seq <= hi and seq not in self.shed_announced
        ]
        payload = encode_frame(
            self.source, frame.frame_id, self.spooler.floor_seq, lines,
        )
        self._send(payload, now)
        frame.count = len(lines)
        frame.deadline = now + self.config.ack_timeout
        frame.flying = True
        self.frames_sent += 1
        self.records_sent += len(lines)

    def _backoff(self, tries: int) -> int:
        config = self.config
        exponent = min(tries - 1, 16)
        delay = min(config.backoff_max, config.backoff_base << exponent)
        jitter = int(self._rng.integers(0, config.backoff_base + 1))
        return delay + jitter

    # ------------------------------------------------------------------
    def tick(self, now: int) -> int:
        """Advance the client at step *now*; returns frames sent."""
        if self.handshake == _HS_REJECTED:
            return 0
        if self.circuit is CircuitState.OPEN:
            if now < self._reopen_at:
                return 0
            self._transition(now, CircuitState.HALF_OPEN,
                             "cooldown elapsed")
        if self.handshake != _HS_ESTABLISHED:
            self._tick_hello(now)
            return 0
        if self.circuit is CircuitState.HALF_OPEN:
            return self._tick_half_open(now)
        return self._tick_closed(now)

    def _tick_hello(self, now: int) -> None:
        if self._hello_deadline is not None and now < self._hello_deadline:
            return
        if now < self._next_send_at:
            return
        self._send(
            encode_hello(self.source, self.config.token or "", self.life),
            now,
        )
        self.hellos += 1
        self._hello_tries += 1
        self._hello_deadline = (
            now + self.config.ack_timeout + self._backoff(self._hello_tries)
        )

    def _tick_half_open(self, now: int) -> int:
        """Exactly one designated probe frame may fly while half-open."""
        probe = None
        if self._probe_frame_id is not None:
            probe = next(
                (f for f in self._flight
                 if f.frame_id == self._probe_frame_id), None,
            )
            if probe is None:  # retired by an ack between ticks
                self._probe_frame_id = None
        if probe is not None:
            if probe.flying and now >= probe.deadline:
                probe.flying = False
                self.timeouts += 1
                self.consecutive_failures += 1
                self._open_circuit(now, "probe timeout")
            return 0
        # Designate: oldest unacked frame, else one fresh frame, else
        # (all in flight sacked) the oldest frame as a floor carrier.
        probe = self._oldest_unacked()
        if probe is None:
            sent = self._send_new_frames(now, limit=1)
            if sent:
                probe = self._flight[-1]
                self._probe_frame_id = probe.frame_id
                self.probes += 1
                return sent
            if not self._flight:
                return 0
            probe = self._flight[0]
            probe.tries += 1
            self._transmit(probe, now)
            self._probe_frame_id = probe.frame_id
            self.probes += 1
            self.floor_probes += 1
            return 1
        probe.tries += 1
        self._transmit(probe, now)
        self._probe_frame_id = probe.frame_id
        self.probes += 1
        self.retransmits += 1
        return 1

    def _tick_closed(self, now: int) -> int:
        sent = 0
        # Timeouts first: only the oldest unacked frame's timeout feeds
        # the breaker -- a windowed burst dying to one partition must
        # count as one failure episode, not ``window_frames`` of them.
        oldest = self._oldest_unacked()
        for frame in self._flight:
            if frame.sacked or not frame.flying:
                continue
            if now < frame.deadline:
                continue
            frame.flying = False
            self.timeouts += 1
            if frame is oldest:
                self.consecutive_failures += 1
                if self.consecutive_failures >= self.config.failure_threshold:
                    self._open_circuit(now, "failure threshold")
                    return sent
            frame.resend_at = now + self._backoff(frame.tries)
        # Retransmissions whose backoff elapsed.
        for frame in self._flight:
            if frame.sacked or frame.flying:
                continue
            if now < frame.resend_at:
                continue
            frame.tries += 1
            self._transmit(frame, now)
            self.retransmits += 1
            sent += 1
        # New frames while the window (and the peer's) has room.
        if now >= self._next_send_at:
            sent += self._send_new_frames(now)
        # Every in-flight frame selectively acked yet the cumulative
        # ack lags: the gap below is a seq the vehicle will never offer
        # (a hole in the seq space, an eviction, a shed hold-back), so
        # nothing above would ever fly again.  Keep re-offering the
        # oldest frame purely as a *floor carrier* -- its floor is what
        # lets the ingest watermark sweep the gap and release the
        # flight.  Counted, never silent.
        if not sent and self._flight and self._oldest_unacked() is None:
            probe = self._flight[0]
            if probe.flying:
                if now >= probe.deadline:
                    probe.flying = False
                    probe.resend_at = now + self._backoff(probe.tries)
            elif now >= probe.resend_at:
                probe.tries += 1
                self._transmit(probe, now)
                self.floor_probes += 1
                sent += 1
        return sent

    def _send_new_frames(self, now: int, limit: Optional[int] = None) -> int:
        sent = 0
        config = self.config
        while len(self._flight) < config.window_frames:
            if limit is not None and sent >= limit:
                break
            take = config.frame_records
            if self.peer_window is not None:
                room = self.peer_window - self.inflight_records
                if room < 1:
                    if not self._stalled:
                        self._stalled = True
                        self.window_stalls += 1
                    break
                take = min(take, room)
            entries = self.spooler.pending_entries(
                limit=take, above_seq=self._sent_through
            )
            entries = [e for e in entries if e[0] not in self.shed_announced]
            if not entries:
                break
            self._stalled = False
            frame = _Frame(
                frame_id=self._next_frame_id,
                lo_seq=entries[0][0],
                hi_seq=entries[-1][0],
                count=len(entries),
                deadline=now + config.ack_timeout,
            )
            self._next_frame_id += 1
            payload = encode_frame(
                self.source, frame.frame_id, self.spooler.floor_seq,
                [line for _, line in entries],
            )
            self._send(payload, now)
            self.frames_sent += 1
            self.records_sent += len(entries)
            self._sent_through = frame.hi_seq
            self._flight.append(frame)
            sent += 1
        return sent

    # ------------------------------------------------------------------
    def on_ack(self, doc: dict, now: int) -> bool:
        """Fold one decoded control envelope; True on progress."""
        if not isinstance(doc, dict) or doc.get("source") != self.source:
            return False
        schema = doc.get("schema")
        if schema == WELCOME_SCHEMA:
            return self._on_welcome(doc, now)
        if schema == REJECT_SCHEMA:
            return self._on_reject(doc, now)
        if schema != ACK_SCHEMA or not isinstance(
            doc.get("ack_through"), int
        ):
            return False
        if self.handshake == _HS_REJECTED:
            return False
        self.acks += 1
        progressed = False
        if isinstance(doc.get("window"), int):
            self.peer_window = doc["window"]
            if self.peer_window > self.inflight_records:
                self._stalled = False
        for seq in doc.get("shed", ()):
            if isinstance(seq, int):
                self.shed_announced.add(seq)
        ack_through = doc["ack_through"]
        released = self.spooler.ack_through(ack_through)
        if released:
            announced = self.shed_announced
            acked = [seq for seq in released if seq not in announced]
            shed = [seq for seq in released if seq in announced]
            if acked and self.on_acked is not None:
                self.on_acked(acked)
            if shed:
                self.shed_records += len(shed)
                if self.on_shed is not None:
                    self.on_shed(shed)
            progressed = True
        for pair in doc.get("sack", ()):
            if (
                isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(x, int) for x in pair)
            ):
                lo, hi = pair
                for frame in self._flight:
                    if (
                        not frame.sacked
                        and lo <= frame.lo_seq and frame.hi_seq <= hi
                    ):
                        frame.sacked = True
        retained = [f for f in self._flight if f.hi_seq > ack_through]
        if len(retained) != len(self._flight):
            self._flight = retained
            progressed = True
        if progressed:
            self.consecutive_failures = 0
            self._dup_count = 0
            self._last_ack_value = ack_through
            if self.circuit is not CircuitState.CLOSED:
                self._transition(now, CircuitState.CLOSED, "ack progress")
                self._probe_frame_id = None
            self._next_send_at = now
            return True
        self.stale_acks += 1
        if ack_through == self._last_ack_value and self._flight:
            self.dup_acks += 1
            self._dup_count += 1
            if self._dup_count >= self.config.dup_ack_threshold:
                self._dup_count = 0
                self._fast_retransmit(now)
        else:
            self._last_ack_value = ack_through
            self._dup_count = 0
        return False

    def _fast_retransmit(self, now: int) -> None:
        """Dup-ack threshold hit: resend the oldest unacked frame now
        (unless the breaker is open or half-open -- probes rule there)."""
        if self.circuit is not CircuitState.CLOSED:
            return
        frame = self._oldest_unacked()
        if frame is None:
            return
        frame.tries += 1
        self._transmit(frame, now)
        self.retransmits += 1
        self.fast_retransmits += 1

    def _on_welcome(self, doc: dict, now: int) -> bool:
        if self.handshake == _HS_REJECTED:
            return False
        self.handshake = _HS_ESTABLISHED
        self._hello_deadline = None
        self._hello_tries = 0
        if isinstance(doc.get("window"), int):
            self.peer_window = doc["window"]
        self._next_send_at = now
        return True

    def _on_reject(self, doc: dict, now: int) -> bool:
        reason = doc.get("reason")
        if reason == "auth":
            self.auth_rejected = True
            self.handshake = _HS_REJECTED
            return True
        if reason == "hello":
            # The gateway forgot the session (crash): re-handshake; the
            # flight is kept, retransmit timers resume after WELCOME.
            self.hello_rejects += 1
            if self.config.token is not None:
                self.handshake = _HS_PENDING
                self._hello_deadline = None
            return True
        if reason == "rate":
            self.rate_rejects += 1
            retry_after = doc.get("retry_after")
            if isinstance(retry_after, int):
                self._next_send_at = max(
                    self._next_send_at, now + retry_after
                )
            return True
        return False

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "source": self.source,
            "circuit": self.circuit.value,
            "handshake": self.handshake,
            "in_flight_frames": len(self._flight),
            "in_flight_records": self.inflight_records,
            "peer_window": self.peer_window,
            "frames_sent": self.frames_sent,
            "records_sent": self.records_sent,
            "retransmits": self.retransmits,
            "fast_retransmits": self.fast_retransmits,
            "timeouts": self.timeouts,
            "acks": self.acks,
            "stale_acks": self.stale_acks,
            "dup_acks": self.dup_acks,
            "window_stalls": self.window_stalls,
            "circuit_opens": self.circuit_opens,
            "probes": self.probes,
            "shed_records": self.shed_records,
            "hellos": self.hellos,
            "rate_rejects": self.rate_rejects,
            "hello_rejects": self.hello_rejects,
            "floor_probes": self.floor_probes,
            "auth_rejected": self.auth_rejected,
            "consecutive_failures": self.consecutive_failures,
            "transitions": [list(t) for t in self.transitions],
            "spool": self.spooler.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<WindowedUplinkClient {self.source} "
            f"circuit={self.circuit.value} flight={len(self._flight)} "
            f"pending={self.spooler.pending}>"
        )
