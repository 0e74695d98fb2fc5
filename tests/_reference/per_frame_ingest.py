"""The per-frame store apply shipped until the gateway step became the
fleet path's unit of work.

Production ``UplinkIngestor.ingest_frame`` admits decoded wire rows and
leaves what drained to ``flush()`` -- one columnar ``ingest_batch`` per
frame for a caller that syncs per frame, one per gateway step
otherwise.  This is the ``ingest_frame`` it replaced, body verbatim
where it still can be: the per-line decode
(``_reference/per_line_frame_decode.py``), a ``TelemetryRecord`` per
line, and every frame's fresh records applied as one batch before the
call returns, whatever ``sync`` says.  Held records are kept as wire
rows, which is what the inherited ``checkpoint()`` / ``recover()``
read.  Oracle of the chunking
invariance property in ``tests/test_uplink_ingest_journal.py``: however
the frames of a schedule are grouped into flushes, store, alert log,
journal, checkpoints and ``on_fresh`` must come out the same.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from _reference.per_line_frame_decode import decode_frame
from repro.telemetry.records import TelemetryRecord
from repro.telemetry.uplink.ingest import UplinkIngestor


class PerFrameIngestor(UplinkIngestor):
    """:class:`UplinkIngestor` applying every frame on its own."""

    def ingest_frame(
        self,
        payload: str,
        now: int = 0,
        sync: bool = True,
        shed: Optional[Callable[[List[TelemetryRecord]], Set[int]]] = None,
        header: Optional[dict] = None,
    ) -> Optional[dict]:
        decoded = decode_frame(payload)
        if decoded is None:
            self.corrupt_payloads += 1
            return None
        header, records, lines = decoded
        source = header["source"]
        dedup = self._dedup(source)
        self._dirty_dedup.add(source)
        self.frames += 1
        self.records_seen += len(records)
        floor = header["floor"]
        if floor > 0:
            dedup.advance_to(floor - 1)
        nominated = shed(records) if shed is not None else ()
        held = self._held.setdefault(source, {})
        newly_shed: List[int] = []
        for record, line in zip(records, lines):
            if record.seq in nominated:
                if dedup.admit(record.seq):
                    newly_shed.append(record.seq)
                    self.records_shed += 1
                else:
                    self.records_duplicate += 1
                continue
            if dedup.admit(record.seq):
                self.log.append_lines([line])
                held[record.seq] = list(record.to_wire())
                self.records_fresh += 1
            else:
                self.records_duplicate += 1
        if newly_shed and self.on_shed_settled is not None:
            self.on_shed_settled(source, newly_shed)
        self.log.append_marker(source, dedup.watermark)
        if sync:
            self.log.sync()
        self._ready += self._drain_held(source)
        self.flush()
        self._since_checkpoint += 1
        if (
            self.checkpoint_every is not None
            and self._since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()
        return header

    def flush(self) -> None:
        """The old apply: a record per row, applied per frame."""
        rows, self._ready = self._ready, []
        if rows:
            fresh = [TelemetryRecord.from_wire(tuple(row)) for row in rows]
            self.service.ingest_batch([record.to_wire() for record in fresh])
            if self.on_fresh is not None:
                self.on_fresh(fresh)
