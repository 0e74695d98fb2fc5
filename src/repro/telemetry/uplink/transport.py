"""Uplink wire envelopes and the adversarial transport channel.

The uplink speaks two CRC-framed messages over an unreliable datagram
channel:

- a **frame** (vehicle -> fleet): ``repro-uplink-frame/1``, a header
  line followed by an ordered slice of the spool's WAL entry lines,
  verbatim (decoded all-or-nothing into type-checked wire rows with one
  JSON parse per frame, see :func:`decode_frame`), and
- an **ack** (fleet -> vehicle): ``repro-uplink-ack/1`` carrying the
  per-source *cumulative* acknowledgment watermark (every spooled seq
  at or below it is durable fleet-side).

:class:`AdversarialChannel` is the simulated link the chaos harness
(and any test) runs these envelopes through.  It reuses the network
layer's :class:`~repro.network.link.Frame` as the in-flight unit and
:class:`~repro.network.link.JitterModel` for delay sampling, and plays
the fault-injection campaign's role of ground truth: every fault it
injects (drop, duplicate, reorder, corrupt, partition) is drawn from a
seeded ``numpy`` stream, counted in :class:`ChannelStats`, and recorded
as :class:`~repro.network.injection.Injection` entries -- deterministic
and auditable, in the idiom of the campaign's injectors.

Time is a bare integer step counter supplied by the driver -- no wall
clock anywhere, so every interleaving is replayable.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.injection import Injection
from repro.network.link import Frame, JitterModel
from repro.schema import (
    c_encode_json_sorted,
    c_scan_json,
    decode_json,
    json_markers,
)
from repro.telemetry.records import wire_rows_ok
from repro.telemetry.uplink.wal import encode_entry, entry_body

#: Envelope schema identifiers.
ACK_SCHEMA = "repro-uplink-ack/1"
#: Multi-record frame: a CRC-framed header line followed by the
#: records' WAL entry lines verbatim (one per line).  There is no
#: re-serialization: the vehicle sends the exact bytes its WAL holds,
#: and the ingestor appends them verbatim.
FRAME_SCHEMA = "repro-uplink-frame/1"
#: Control-plane epoch distribution rides the same channel: an epoch
#: frame travels the downlink (fleet -> vehicle), its ack the uplink.
EPOCH_FRAME_SCHEMA = "repro-adaptive-frame/1"
EPOCH_ACK_SCHEMA = "repro-adaptive-frame-ack/1"
#: Gateway session control (vehicle <-> fleet gateway handshake).
HELLO_SCHEMA = "repro-gateway-hello/1"
WELCOME_SCHEMA = "repro-gateway-welcome/1"
REJECT_SCHEMA = "repro-gateway-reject/1"


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
def encode_envelope(doc: dict) -> str:
    """Serialize *doc* with a leading CRC so corruption is detectable.

    :func:`~repro.schema.encode_json_sorted` is inlined here and the
    parse in :func:`decode_envelope`: they run once per frame and ack.
    """
    try:
        body = "".join(c_encode_json_sorted(doc, 0))
    except BaseException:
        json_markers.clear()
        raise
    return encode_entry(body)


def decode_envelope(payload: str) -> Optional[dict]:
    """Inverse of :func:`encode_envelope`; ``None`` on any damage."""
    body = entry_body(payload) if isinstance(payload, str) else None
    if body is None:
        return None
    try:
        try:
            doc, end = c_scan_json(body, 0)
        except StopIteration:
            end = None
        if end != len(body):
            doc = decode_json(body)  # a miss: json.loads decides
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def encode_ack(
    source: str,
    batch_id: int,
    ack_through: int,
    sack: Optional[Sequence[Sequence[int]]] = None,
    shed: Optional[Sequence[int]] = None,
    window: Optional[int] = None,
) -> str:
    """One cumulative acknowledgment envelope.

    Three optional fields ride the ``repro-uplink-ack/1`` schema (an
    ack without them is a bare cumulative ack):

    - ``sack`` -- selective-ack ``[lo, hi]`` ranges above the
      cumulative watermark that are already durable fleet-side, so the
      client skips retransmitting them;
    - ``shed`` -- the *cumulative sorted* list of seqs the gateway shed
      under overload (counted rejection, never silent): the client
      must stop offering them and account them in its ledger;
    - ``window`` -- the advertised per-connection receive window in
      records (explicit backpressure: 0 means "stall until the next
      window update").
    """
    doc = {
        "schema": ACK_SCHEMA,
        "source": source,
        "batch_id": batch_id,
        "ack_through": ack_through,
    }
    if sack:
        doc["sack"] = [list(pair) for pair in sack]
    if shed:
        doc["shed"] = list(shed)
    if window is not None:
        doc["window"] = int(window)
    return encode_envelope(doc)


# ----------------------------------------------------------------------
# Multi-record frames
# ----------------------------------------------------------------------
def encode_frame(
    source: str, frame_id: int, floor: int, entries: Sequence[str]
) -> str:
    """One uplink frame.

    ``entries`` are CRC-framed WAL lines (from
    :meth:`~repro.telemetry.uplink.wal.WalSpooler.pending_entries`),
    joined verbatim under a CRC-framed header line.  ``floor`` is the
    lowest seq the vehicle may still offer (the spool's
    :attr:`~repro.telemetry.uplink.wal.WalSpooler.floor_seq` at build
    time): the ingestor advances its dedup watermark to ``floor - 1``,
    which is what keeps eviction from stalling the cumulative ack.
    """
    head = encode_envelope(
        {"schema": FRAME_SCHEMA, "source": source, "frame_id": frame_id,
         "floor": floor, "count": len(entries)}
    )
    if not entries:
        # An empty frame is a pure floor/ack probe; the trailing newline
        # keeps it distinguishable from single-line JSON envelopes.
        return head + "\n"
    return "\n".join([head, *entries])


def decode_frame_header(payload: str) -> Optional[dict]:
    """The checked header of a frame datagram (its first line): CRC,
    schema, ``source`` a str, ``frame_id`` / ``floor`` / ``count`` ints
    (a bool is not one), ``count >= 0``; ``None`` on any damage."""
    header = decode_envelope(payload.partition("\n")[0])
    if (
        header is None
        or header.get("schema") != FRAME_SCHEMA
        or type(header.get("source")) is not str
        or any(type(header.get(key)) is not int
               for key in ("frame_id", "floor", "count"))
        or header["count"] < 0
    ):
        return None
    return header


def decode_frame(
    payload: str, header: Optional[dict] = None
) -> Optional[Tuple[dict, List[list], List[str]]]:
    """``(header, wire rows, raw entry lines)``; ``None`` on any damage.

    A frame is all-or-nothing: a corrupt header, a corrupt record line,
    a truncated tail (``count`` mismatch) or a wrongly typed field
    rejects the whole frame -- the retransmit timer heals it,
    exactly-once dedup absorbs the overlap.  *header* is this payload's
    :func:`decode_frame_header` result, when the caller already has it.

    Every line's CRC is checked on its own; all record bodies are then
    parsed by **one** scan.  That equals a parse per line
    because a body must be ``[...]``, the join is ``,\\n`` (JSON forbids
    a raw newline inside a string, so no string spans two lines) and
    :func:`~repro.telemetry.records.wire_rows_ok` admits no nested
    list (so no line continues its predecessor's row): with as many
    rows as lines, every line is exactly one row (DESIGN.md §9).
    """
    if not isinstance(payload, str) or "\n" not in payload:
        return None
    if header is None:
        header = decode_frame_header(payload)
        if header is None:
            return None
    lines = payload.split("\n")[1:]
    if lines[-1] == "":
        lines.pop()  # empty-frame probe: header line + trailing newline
    if header["count"] != len(lines):
        return None
    bodies = []
    for line in lines:  # entry_body() inlined: a call per record line
        body = line[9:]
        if line[8:10] != ":[" or body[-1] != "]":
            return None
        try:
            crc = int(line[:8], 16)
        except ValueError:
            return None
        if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
            return None
        bodies.append(body)
    text = "[" + ",\n".join(bodies) + "]"
    try:
        rows, end = c_scan_json(text, 0)
    except (StopIteration, ValueError):
        return None
    # *text* opens with "[" and ends with "]": what the scan leaves over
    # is data json.loads would refuse too.
    if end != len(text) or len(rows) != len(lines) or not wire_rows_ok(rows):
        return None
    return header, rows, lines


def encode_hello(source: str, token: str, life: int = 0) -> str:
    """Session-open request (vehicle -> gateway) with the shared secret."""
    return encode_envelope({
        "schema": HELLO_SCHEMA,
        "source": source,
        "token": token,
        "life": life,
    })


def encode_welcome(source: str, window: int) -> str:
    """Session grant carrying the initial receive window (records)."""
    return encode_envelope({
        "schema": WELCOME_SCHEMA,
        "source": source,
        "window": int(window),
    })


def encode_reject(
    source: str, reason: str, retry_after: Optional[int] = None
) -> str:
    """Counted, never-silent refusal.

    ``reason`` is ``auth`` (terminal: bad shared secret), ``hello``
    (no session -- e.g. the gateway crashed and forgot it; re-handshake
    and resume), or ``rate`` (token bucket empty; back off
    ``retry_after`` steps and retransmit).
    """
    doc = {"schema": REJECT_SCHEMA, "source": source, "reason": reason}
    if retry_after is not None:
        doc["retry_after"] = int(retry_after)
    return encode_envelope(doc)


def encode_epoch_frame(vehicle: str, epoch_doc: dict) -> str:
    """One budget-epoch frame (fleet -> vehicle downlink)."""
    return encode_envelope({
        "schema": EPOCH_FRAME_SCHEMA,
        "vehicle": vehicle,
        "epoch": epoch_doc,
    })


def decode_epoch_frame(doc: dict) -> Optional[Tuple[str, dict]]:
    """``(vehicle, epoch_doc)`` of a decoded epoch frame; ``None`` when
    the envelope is not a well-formed epoch frame."""
    if (
        not isinstance(doc, dict)
        or doc.get("schema") != EPOCH_FRAME_SCHEMA
        or not isinstance(doc.get("vehicle"), str)
        or not isinstance(doc.get("epoch"), dict)
    ):
        return None
    return doc["vehicle"], doc["epoch"]


def encode_epoch_ack(vehicle: str, epoch_id: int, status: str) -> str:
    """A vehicle's durable epoch acknowledgment (uplink direction).

    ``status`` is ``applied`` (budgets installed) or ``deferred`` (the
    epoch is durable vehicle-side but application waits for the
    degradation ladder to return to NORMAL).
    """
    return encode_envelope({
        "schema": EPOCH_ACK_SCHEMA,
        "vehicle": vehicle,
        "epoch_id": epoch_id,
        "status": status,
    })


# ----------------------------------------------------------------------
# Fault plan
# ----------------------------------------------------------------------
@dataclass
class ChannelFaultPlan:
    """Adversarial behavior of one channel direction.

    Probabilities are i.i.d. per frame from the channel's seeded RNG;
    ``partitions`` are ``[start, end)`` step windows during which the
    channel delivers *nothing* (both the blunt instrument and the only
    deterministic-by-schedule fault, mirroring the injector catalogue's
    window idiom).
    """

    drop_prob: float = 0.0
    dup_prob: float = 0.0
    reorder_prob: float = 0.0
    corrupt_prob: float = 0.0
    #: Extra delivery delay (steps) a reordered frame suffers.
    reorder_extra: int = 5
    #: Uniform jitter amplitude (steps) added to every delivery.
    jitter_steps: int = 0
    partitions: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_prob", "dup_prob", "reorder_prob", "corrupt_prob"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        for start, end in self.partitions:
            if end <= start:
                raise ValueError(f"empty partition window [{start}, {end})")

    def partitioned(self, step: int) -> bool:
        return any(start <= step < end for start, end in self.partitions)


@dataclass
class ChannelStats:
    """Cumulative per-channel counters (ground truth for the ledger)."""

    offered: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    corrupted: int = 0
    partition_dropped: int = 0
    #: Frames that arrived while the receiving endpoint was crashed.
    dead_letter: int = 0

    def to_json(self) -> dict:
        return dict(self.__dict__)


# ----------------------------------------------------------------------
# The channel
# ----------------------------------------------------------------------
#: Steps every datagram spends in flight before jitter and reordering.
BASE_DELAY_STEPS = 1


class AdversarialChannel:
    """A lossy, duplicating, reordering, corrupting datagram channel.

    ``deliver(frame, now)`` is invoked for each frame whose delivery
    step has come (during :meth:`step`).  Determinism: the RNG stream
    is seeded from the channel name (crc32, never ``hash``) xor the
    run seed, matching the load generator's convention.
    """

    def __init__(
        self,
        name: str,
        deliver: Callable[[Frame, int], None],
        plan: Optional[ChannelFaultPlan] = None,
        seed: int = 0,
    ):
        self.name = name
        self.deliver = deliver
        self.plan = plan or ChannelFaultPlan()
        self.stats = ChannelStats()
        self._rng = np.random.default_rng(
            (seed * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFF
        )
        self._jitter = JitterModel(
            "uniform" if self.plan.jitter_steps else "none",
            self.plan.jitter_steps,
        )
        #: (deliver_at, tie-break order, frame) min-heap.
        self._inflight: List[Tuple[int, int, Frame]] = []
        self._order = 0
        self.injections: List[Injection] = [
            Injection(kind="partition", target=name,
                      start_ns=start, end_ns=end)
            for start, end in self.plan.partitions
        ]

    # ------------------------------------------------------------------
    def send(self, payload: str, src: str, dst: str, now: int) -> bool:
        """Offer one datagram; False when the channel ate it."""
        plan = self.plan
        rng = self._rng
        self.stats.offered += 1
        if plan.partitioned(now):
            self.stats.partition_dropped += 1
            return False
        if plan.drop_prob and rng.random() < plan.drop_prob:
            self.stats.dropped += 1
            return False
        if plan.corrupt_prob and rng.random() < plan.corrupt_prob:
            payload = self._corrupt(payload)
            self.stats.corrupted += 1
        delay = BASE_DELAY_STEPS + self._jitter.sample(rng)
        if plan.reorder_prob and rng.random() < plan.reorder_prob:
            delay += plan.reorder_extra
            self.stats.reordered += 1
        self._push(payload, src, dst, now + delay)
        if plan.dup_prob and rng.random() < plan.dup_prob:
            self.stats.duplicated += 1
            self._push(payload, src, dst,
                       now + delay + 1 + self._jitter.sample(rng))
        return True

    def _corrupt(self, payload: str) -> str:
        index = int(self._rng.integers(0, len(payload)))
        flip = "#" if payload[index] != "#" else "*"
        return payload[:index] + flip + payload[index + 1:]

    def _push(self, payload: str, src: str, dst: str, at: int) -> None:
        frame = Frame(payload=payload, size_bytes=len(payload),
                      src=src, dst=dst, seq=self._order)
        self._order += 1
        heapq.heappush(self._inflight, (at, frame.seq, frame))

    # ------------------------------------------------------------------
    def step(self, now: int) -> int:
        """Deliver every frame due at or before *now*; returns count."""
        delivered = 0
        inflight = self._inflight
        while inflight and inflight[0][0] <= now:
            _, _, frame = heapq.heappop(inflight)
            self.stats.delivered += 1
            self.deliver(frame, now)
            delivered += 1
        return delivered

    def pending(self) -> int:
        return len(self._inflight)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<AdversarialChannel {self.name} inflight={len(self._inflight)} "
            f"offered={self.stats.offered}>"
        )
