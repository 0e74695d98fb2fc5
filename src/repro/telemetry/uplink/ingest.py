"""Fleet-side at-least-once ingestion with idempotent deduplication.

The transport is allowed to deliver a frame zero, one, or five times,
in any order.  :class:`UplinkIngestor` turns that into *exactly-once
application* against the :class:`~repro.telemetry.service.TelemetryService`
using one :class:`DedupWatermark` per source: a cumulative watermark
(every seq at or below it has been seen) plus a bounded set of
above-watermark seqs.  Duplicates therefore never double-count (m,k)
misses, and reordered stale frames are absorbed silently.

A frame's records never become objects on the way: decoded wire rows
are admitted on their seq, held until every lower seq is settled, and
:meth:`UplinkIngestor.flush` hands what drained to the store as one
list of rows -- per frame for a caller that syncs per frame, per step
for the gateway.

Durability follows the vehicle-side rule, mirrored: **append before
ack**.  A frame's fresh record lines (one write) and its watermark
marker are written to an append-only
:class:`~repro.telemetry.uplink.wal.RecordLog` -- the ingestor's only
durable file -- and synced *before* the acknowledgment envelope is
produced, so a fleet crash after an ack can always rebuild
the acknowledged state.  The journal is base + redo: a checkpoint is
one more entry holding the watermarks that moved and the store's
``applied`` count, nothing is truncated, and once the journal has
outgrown its base it is rewritten as header + one full-state entry with
a single rename.  :meth:`UplinkIngestor.recover` is one scan: the base,
the record lines the newest checkpoint covers redone on top of it, then
the entries after it replayed *through the dedup layer*, idempotent by
construction -- replaying twice is the same as replaying once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.schema import SchemaVersionError, encode_json, encode_json_sorted
from repro.telemetry.records import SEQ, SOURCE
from repro.telemetry.service import ServiceConfig, TelemetryService
from repro.telemetry.uplink.transport import (
    decode_envelope,
    decode_frame,
    encode_ack,
)
from repro.telemetry.uplink.wal import (
    CHECKPOINT_TAG,
    RecordLog,
    WalCorruptionError,
    encode_entry,
)

#: Schema identifier of a journal checkpoint entry's document.
CHECKPOINT_SCHEMA = "repro-uplink-checkpoint/3"

#: A checkpoint compacts the journal once it is this many times the
#: size compaction last left it at.
JOURNAL_COMPACT_FACTOR = 8


class DedupWatermark:
    """Exactly-once admission over an at-least-once record stream.

    ``watermark`` is cumulative: every seq at or below it was admitted
    (or explicitly skipped via :meth:`advance_to`).  Seqs above it that
    have been seen wait in ``seen`` until the watermark sweeps past
    them, so the structure stays small when delivery is mostly in
    order -- it is bounded by the client's window.
    """

    __slots__ = ("watermark", "seen", "admitted", "duplicates")

    def __init__(self, watermark: int = -1):
        self.watermark = watermark
        self.seen: Set[int] = set()
        self.admitted = 0
        self.duplicates = 0

    def admit(self, seq: int) -> bool:
        """True exactly once per seq, however often it is offered."""
        if seq == self.watermark + 1:
            # In order, the common case: ``seen`` never holds the seq
            # right above the watermark, so no lookup and no add.
            self.watermark = seq
            self.admitted += 1
            if self.seen:
                self._sweep()
            return True
        if seq <= self.watermark or seq in self.seen:
            self.duplicates += 1
            return False
        self.seen.add(seq)
        self.admitted += 1
        return True

    def admit_run(self, seqs: List[int]) -> bool:
        """Admit all of *seqs* when they run on from the watermark with
        nothing seen above it -- a frame in order, the common case --
        as :meth:`admit` of each would; otherwise admit none, False."""
        first = self.watermark + 1
        if self.seen or seqs != list(range(first, first + len(seqs))):
            return False
        self.watermark += len(seqs)
        self.admitted += len(seqs)
        return True

    def advance_to(self, seq: int) -> None:
        """Declare every seq at or below *seq* settled.

        Frames arrive out of order, so this must NOT be called with a
        frame maximum (a lower frame may still be in flight).  The
        ingestor calls it with ``floor - 1``, where ``floor`` is the
        lowest seq the vehicle can still offer -- see
        :func:`~repro.telemetry.uplink.transport.encode_frame`:
        anything below it is either already admitted or evicted
        vehicle-side and will never be offered again, so collapsing
        the window loses nothing.
        """
        if seq <= self.watermark:
            return
        self.watermark = seq
        self.seen = {s for s in self.seen if s > seq}
        # The jump may land directly below out-of-order settled seqs;
        # without this sweep the watermark deadlocks when those seqs
        # are never re-offered (e.g. shed-announced records a windowed
        # client holds back, so the floor stops rising).
        self._sweep()

    def _sweep(self) -> None:
        """Fold contiguous settled seqs into the cumulative watermark."""
        while self.watermark + 1 in self.seen:
            self.watermark += 1
            self.seen.discard(self.watermark)

    def sack_ranges(self, limit: int = 16) -> List[List[int]]:
        """Contiguous ``[lo, hi]`` runs of above-watermark seen seqs.

        These ride acks as selective acknowledgments so the windowed
        client skips retransmitting frames that are already durable.
        Truncated to the *lowest* ``limit`` runs (the ones retransmit
        timers would fire for first); dropping higher runs is safe --
        sack is an optimization, cumulative acks are the truth.
        """
        runs: List[List[int]] = []
        run: Optional[List[int]] = None
        for seq in sorted(self.seen):
            if run is not None and seq == run[1] + 1:
                run[1] = seq
            else:
                if run is not None:
                    runs.append(run)
                    if len(runs) >= limit:
                        return runs
                run = [seq, seq]
        if run is not None:
            runs.append(run)
        return runs

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "watermark": self.watermark,
            "seen": sorted(self.seen),
            "admitted": self.admitted,
            "duplicates": self.duplicates,
        }

    @classmethod
    def from_json(cls, data: dict) -> "DedupWatermark":
        dedup = cls(int(data["watermark"]))
        dedup.seen = set(data.get("seen", ()))
        dedup.admitted = int(data.get("admitted", 0))
        dedup.duplicates = int(data.get("duplicates", 0))
        dedup._sweep()  # normalize checkpoints from pre-sweep versions
        return dedup

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<DedupWatermark wm={self.watermark} held={len(self.seen)} "
            f"admitted={self.admitted} dup={self.duplicates}>"
        )


@dataclass
class IngestRecoveryReport:
    """What :meth:`UplinkIngestor.recover` rebuilt from disk."""

    checkpoint_loaded: bool = False
    #: Checkpoint entries read, journal bytes scanned and records
    #: redone on top of the base: what a recovery's time is made of.
    fragments_read: int = 0
    journal_bytes: int = 0
    redone_records: int = 0
    replayed_records: int = 0
    replayed_fresh: int = 0
    replayed_markers: int = 0
    truncated_lines: int = 0


class UplinkIngestor:
    """Frames in, acks out; durable before every acknowledgment."""

    def __init__(
        self,
        service: TelemetryService,
        directory: Path,
        fsync: str = "rotate",
        checkpoint_every: Optional[int] = 8,
        _log: Optional[RecordLog] = None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 or None")
        self.service = service
        self.directory = Path(directory)
        self.fsync = fsync
        self.checkpoint_every = checkpoint_every
        self.directory.mkdir(parents=True, exist_ok=True)
        self.log = _log if _log is not None else RecordLog(
            self._wal_path(), fsync
        )
        self.dedup: Dict[str, DedupWatermark] = {}
        #: Admitted-but-not-yet-applied wire rows by seq (above the
        #: dedup watermark, waiting for lower seqs).  Durable in the
        #: log / checkpoint; bounded by the client's window.
        self._held: Dict[str, Dict[int, list]] = {}
        #: Rows drained from ``_held``, in the order the store will see
        #: them, until :meth:`flush` applies them.
        self._ready: List[list] = []
        #: Called by :meth:`flush` with the *fresh* (deduplicated) wire
        #: rows it just applied -- the control plane's observation tap.
        #: Soft state: recovery replay does not re-fire it.
        self.on_fresh: Optional[Callable[[List[list]], None]] = None
        #: Called with ``(source, newly settled shed seqs)`` when an
        #: overload ``shed`` hook rejects records (gateway accounting).
        self.on_shed_settled: Optional[Callable[[str, List[int]], None]] = None
        self._since_checkpoint = 0
        #: Sources whose dedup state moved since the last checkpoint.
        self._dirty_dedup: Set[str] = set()
        # Counters.
        self.payloads = 0
        self.corrupt_payloads = 0
        self.foreign_payloads = 0
        self.frames = 0
        self.records_seen = 0
        self.records_fresh = 0
        self.records_duplicate = 0
        self.records_shed = 0
        self.acks_sent = 0
        self.checkpoints = 0

    # ------------------------------------------------------------------
    def _wal_path(self) -> Path:
        return self.directory / "ingest-wal.log"

    def _dedup(self, source: str) -> DedupWatermark:
        dedup = self.dedup.get(source)
        if dedup is None:
            dedup = self.dedup[source] = DedupWatermark()
        return dedup

    def _drain_held(self, source: str) -> List[list]:
        """Admitted rows whose every lower seq is now settled, in seq
        order -- the only order the store ever sees."""
        held = self._held.get(source)
        if not held:
            return []
        watermark = self._dedup(source).watermark
        ready = sorted(seq for seq in held if seq <= watermark)
        return [held.pop(seq) for seq in ready]

    # ------------------------------------------------------------------
    def handle_payload(self, payload: str, now: int = 0) -> Optional[str]:
        """Process one uplink datagram; returns the ack payload or
        ``None`` when the datagram was corrupt / not a frame (counted,
        never silent)."""
        self.payloads += 1
        if isinstance(payload, str) and "\n" in payload:
            # A frame: header line + entry lines.
            header = self.ingest_frame(payload, now)
            if header is None:
                return None
            return self.ack_payload(header["source"], header["frame_id"])
        # A single line cannot be a frame; count what it was instead.
        if decode_envelope(payload) is None:
            self.corrupt_payloads += 1
        else:
            self.foreign_payloads += 1
        return None

    # ------------------------------------------------------------------
    def ingest_frame(
        self,
        payload: str,
        now: int = 0,
        sync: bool = True,
        shed: Optional[Callable[[List[list]], Set[int]]] = None,
        header: Optional[dict] = None,
    ) -> Optional[dict]:
        """Ingest one frame; returns its header (or ``None``
        when the frame was damaged -- counted, never silent); *header*
        is the caller's ``decode_frame_header`` result, if it has one.

        Frames arrive out of order, so the dedup watermark is advanced
        only to ``floor - 1`` (seqs the vehicle can no longer offer)
        and then through contiguous admission.  ``sync=False`` defers
        log durability and the store apply to the caller (the gateway
        coalesces one :meth:`flush` and one sync per step across many
        frames) -- the caller MUST do both before acknowledging.

        ``shed`` is the gateway's overload hook: handed the frame's
        decoded rows, it nominates seqs to reject by class.  A
        nominated seq is *settled* in dedup (so the
        cumulative ack sweeps past it) but never applied -- unless an
        earlier copy was already admitted, in which case the nomination
        is void (the record IS durable; shedding it now would lie).
        Newly settled shed seqs are reported through
        :attr:`on_shed_settled` and counted, never silent.
        """
        decoded = decode_frame(payload, header)
        if decoded is None:
            self.corrupt_payloads += 1
            return None
        header, rows, lines = decoded
        source = header["source"]
        dedup = self._dedup(source)
        self._dirty_dedup.add(source)
        self.frames += 1
        self.records_seen += len(rows)
        floor = header["floor"]
        if floor > 0:
            dedup.advance_to(floor - 1)
        nominated = shed(rows) if shed is not None else ()
        held = self._held.setdefault(source, {})
        newly_shed: List[int] = []
        fresh: List[str] = []
        if not (held or nominated) and dedup.admit_run(
            [row[SEQ] for row in rows]
        ):
            # Every row fresh and settled, none waiting below them: they
            # go to the store as they came, no stop in ``held``.
            fresh = lines
            self._ready += rows
            rows = ()
        for row, line in zip(rows, lines):
            seq = row[SEQ]
            if seq in nominated:
                if dedup.admit(seq):
                    newly_shed.append(seq)
                    self.records_shed += 1
                else:
                    self.records_duplicate += 1
                continue
            if dedup.admit(seq):
                # The line's CRC was verified in decode_frame: relay it
                # to the log verbatim, no re-encode.  Durable now,
                # applied only once every lower seq is settled --
                # out-of-order frames must not perturb the store's
                # per-source gap/reorder accounting, which is what
                # keeps the store state byte-identical to fault-free
                # direct ingest.
                fresh.append(line)
                held[seq] = row
            else:
                self.records_duplicate += 1
        if fresh:
            self.log.append_lines(fresh)
            self.records_fresh += len(fresh)
        if newly_shed and self.on_shed_settled is not None:
            self.on_shed_settled(source, newly_shed)
        self.log.append_marker(source, dedup.watermark)
        self._ready += self._drain_held(source)
        if sync:
            self.log.sync()
            self.flush()
        self._since_checkpoint += 1
        if (
            self.checkpoint_every is not None
            and self._since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()
        return header

    def flush(self) -> None:
        """Apply every drained row to the store in one fold,
        then hand :attr:`on_fresh` what was applied; apply order is
        drain order, so the chunking changes nothing the store sees."""
        rows = self._ready
        if not rows:
            return
        self._ready = []
        apply_rows(self.service, rows)
        if self.on_fresh is not None:
            self.on_fresh(rows)

    def ack_payload(
        self,
        source: str,
        frame_id: int,
        shed: Optional[List[int]] = None,
        window: Optional[int] = None,
    ) -> str:
        """One ack envelope from current dedup state (watermark +
        selective-ack ranges), with optional gateway fields."""
        dedup = self._dedup(source)
        self.acks_sent += 1
        return encode_ack(
            source, frame_id, dedup.watermark,
            sack=dedup.sack_ranges(), shed=shed, window=window,
        )

    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Durably append one checkpoint entry to the journal: the dedup
        states dirtied since the previous one and the store's
        ``applied`` count -- the record lines before it hold the store
        state.  Once the journal has outgrown its base the entry holds
        the full state instead and replaces the file.  Flushes first:
        the entry must cover every frame ingested so far."""
        self.flush()
        log = self.log
        compact = log.nbytes > JOURNAL_COMPACT_FACTOR * log.base_bytes
        doc: dict = {"schema": CHECKPOINT_SCHEMA}
        if compact:
            doc["store"] = self.service.snapshot()
        else:
            doc["applied"] = self.service.store.applied
        doc["dedup"] = {
            source: self.dedup[source].to_json()
            for source in sorted(self.dedup if compact else self._dirty_dedup)
        }
        self._dirty_dedup = set()
        body = encode_json([CHECKPOINT_TAG, doc])
        if compact:
            # Admitted-but-unapplied records are durable, just waiting
            # for lower seqs before the store may see them: their
            # journal lines are their only copy, so those move along.
            log.compact([
                encode_entry(encode_json(row))
                for _, held in sorted(self._held.items())
                for _, row in sorted(held.items())
            ], body)
        else:
            log.append_checkpoint(body)
        self.checkpoints += 1
        self._since_checkpoint = 0

    def close(self) -> None:
        self.log.close()

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: Path,
        service_config: Optional[ServiceConfig] = None,
        fsync: str = "rotate",
        checkpoint_every: Optional[int] = 8,
    ) -> Tuple["UplinkIngestor", IngestRecoveryReport]:
        """Rebuild an ingestor after a crash: one journal scan, the
        base, the records the newest checkpoint covers redone on top of
        it, then the entries after that checkpoint replayed *through the
        dedup layer* (idempotent by construction)."""
        directory = Path(directory)
        legacy = sorted(directory.glob("checkpoint.*"))
        if legacy:
            # Written by a build that kept the state beside the log:
            # replaying the near-empty log next to it would lose it.
            raise SchemaVersionError(
                str(legacy[0]), "a pre-journal checkpoint file",
                CHECKPOINT_SCHEMA,
            )
        report = IngestRecoveryReport()
        service = TelemetryService(service_config)
        dedup: Dict[str, DedupWatermark] = {}
        held: Dict[str, Dict[int, list]] = {}

        log = RecordLog.open_existing(directory / "ingest-wal.log", fsync)
        report.truncated_lines = log.truncated
        report.journal_bytes = log.nbytes
        report.fragments_read = len(log.checkpoints)
        if log.checkpoints:
            dedup_docs: Dict[str, dict] = {}
            for doc in log.checkpoints:
                if doc.get("schema") != CHECKPOINT_SCHEMA:
                    raise SchemaVersionError(
                        "uplink checkpoint", doc.get("schema"),
                        CHECKPOINT_SCHEMA,
                    )
                dedup_docs.update(doc["dedup"])
            # compact() leaves the full state on top.
            base = log.checkpoints[0]
            service.restore(base["store"])
            floor = {s: d["watermark"] for s, d in base["dedup"].items()}
            dedup = {
                source: DedupWatermark.from_json(state)
                for source, state in dedup_docs.items()
            }
            # Between the base and the newest checkpoint the store applied
            # exactly the logged records those two watermarks bracket (-1
            # for a source the base never heard of), per source in seq
            # order; the ones above the newest one were still held.
            redo: Dict[str, Dict[int, list]] = {}
            for row in log.settled_rows():
                source, seq = row[SOURCE], row[SEQ]
                if seq > dedup[source].watermark:
                    held.setdefault(source, {})[seq] = row
                elif seq > floor.get(source, -1):
                    redo.setdefault(source, {})[seq] = row
            rows = [
                row for source in sorted(redo)
                for _, row in sorted(redo[source].items())
            ]
            apply_rows(service, rows)
            report.redone_records = len(rows)
            # A record line gone from the middle keeps every CRC valid;
            # only the count the newest checkpoint wrote can tell.
            applied = log.checkpoints[-1].get("applied", service.store.applied)
            if service.store.applied != applied:
                raise WalCorruptionError(
                    f"{log.path}: base + redo applied {service.store.applied}"
                    f" records, the last checkpoint says {applied}"
                )
            report.checkpoint_loaded = True

        for row, marker in log.replayed:
            if row is not None:
                report.replayed_records += 1
                source, seq = row[SOURCE], row[SEQ]
                if dedup.setdefault(source, DedupWatermark()).admit(seq):
                    held.setdefault(source, {})[seq] = row
                    report.replayed_fresh += 1
            else:
                source, seq = marker
                dedup.setdefault(source, DedupWatermark()).advance_to(seq)
                report.replayed_markers += 1

        ingestor = cls(
            service, directory, fsync=fsync,
            checkpoint_every=checkpoint_every, _log=log,
        )
        ingestor.dedup = dedup
        ingestor._dirty_dedup = set(dedup)
        ingestor._held = held
        # Apply in seq order per source, exactly as the live path
        # would have; what stays held is above the watermark.
        for source in sorted(held):
            ingestor._ready += ingestor._drain_held(source)
        ingestor.flush()
        ingestor._held = {s: h for s, h in held.items() if h}
        return ingestor, report

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "payloads": self.payloads,
            "corrupt_payloads": self.corrupt_payloads,
            "foreign_payloads": self.foreign_payloads,
            # The batch envelope is gone; the key stays so pinned
            # chaos reports keep their bytes.
            "batches": 0,
            "frames": self.frames,
            "records_seen": self.records_seen,
            "records_fresh": self.records_fresh,
            "records_duplicate": self.records_duplicate,
            "records_shed": self.records_shed,
            "acks_sent": self.acks_sent,
            "checkpoints": self.checkpoints,
            "sources": {
                source: dedup.to_json()
                for source, dedup in sorted(self.dedup.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<UplinkIngestor sources={len(self.dedup)} "
            f"fresh={self.records_fresh} dup={self.records_duplicate}>"
        )


def apply_rows(service: TelemetryService, rows: list) -> None:
    """Apply wire rows through the service's one entry, in slices its
    capacity admits whole: a backpressure drop here would lose an
    acknowledged record from the store."""
    capacity = service.config.queue_capacity
    for start in range(0, len(rows), capacity):
        service.ingest_batch(rows[start:start + capacity])


def store_digest(service: TelemetryService) -> str:
    """Canonical content digest of a service's store state.

    Per-source/per-key snapshots are invariant under cross-source
    delivery interleavings that preserve per-source order, so two
    services that applied the same record set converge to one digest.
    """
    body = encode_json_sorted(service.snapshot())
    return hashlib.sha256(body.encode("utf-8")).hexdigest()
