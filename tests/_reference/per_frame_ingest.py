"""The per-frame store apply shipped until the gateway step became the
fleet path's unit of work.

Production ``UplinkIngestor.ingest_frame`` admits decoded wire rows and
leaves what drained to ``flush()`` -- one columnar ``ingest_batch`` per
frame for a caller that syncs per frame, one per gateway step
otherwise.  This is the ``ingest_frame`` it replaced, body verbatim
where it still can be: the per-line decode
(``_reference/per_line_frame_decode.py``), a journal write per line,
and every frame's fresh rows applied as one batch before the call
returns, whatever ``sync`` says.  Held rows are what the inherited
``checkpoint()`` / ``recover()`` read.  Oracle of the chunking
invariance property in ``tests/test_uplink_ingest_journal.py``: however
the frames of a schedule are grouped into flushes, store, alert log,
journal, checkpoints and ``on_fresh`` must come out the same.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from _reference.per_line_frame_decode import decode_frame
from repro.telemetry.records import SEQ
from repro.telemetry.uplink.ingest import UplinkIngestor


class PerFrameIngestor(UplinkIngestor):
    """:class:`UplinkIngestor` applying every frame on its own."""

    def ingest_frame(
        self,
        payload: str,
        now: int = 0,
        sync: bool = True,
        shed: Optional[Callable[[List[list]], Set[int]]] = None,
        header: Optional[dict] = None,
    ) -> Optional[dict]:
        decoded = decode_frame(payload)
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
                self.log.append_lines([line])
                held[seq] = row
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
        """The old apply: every frame's rows applied on their own."""
        rows, self._ready = self._ready, []
        if rows:
            self.service.ingest_batch(rows)
            if self.on_fresh is not None:
                self.on_fresh(rows)
