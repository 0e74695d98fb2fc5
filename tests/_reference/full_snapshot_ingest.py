"""The full-snapshot ingest checkpoint shipped until PR 21.

Production journals a checkpoint as one ``~ck`` entry of
``ingest-wal.log`` holding only what changed.  This is the pair it
replaced, bodies verbatim: ``checkpoint()`` dumps the whole store, every
dedup watermark and every held record to ``checkpoint.json`` (``tmp`` +
``os.replace``) and truncates the log (``RecordLog.reset``, kept here as
:func:`_reset`); ``recover()`` loads that document and replays the log
through dedup.  Adapted since: held and replayed records are wire
rows, as in production since the gateway step became the unit of work,
the journal's header line is ``RecordLog.header``, and replayed records
are applied as columnar batches (the service has no record queue).
Oracle of the crash-interleaving property in
``tests/test_uplink_ingest_journal.py``: after any schedule of frames,
checkpoints and crashes both must hold the same store digest, dedup
watermarks and held records.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.schema import SchemaVersionError
from repro.telemetry.service import ServiceConfig, TelemetryService
from repro.telemetry.uplink.ingest import (
    DedupWatermark,
    IngestRecoveryReport,
    UplinkIngestor,
)
from repro.telemetry.uplink.wal import RecordLog

CHECKPOINT_SCHEMA = "repro-uplink-checkpoint/1"


def _reset(log: RecordLog) -> None:
    """Truncate after a checkpoint absorbed every entry."""
    log._file.seek(0)
    log._file.truncate()
    log._file.write(log.header + "\n")
    log._file.flush()
    if log.fsync != "never":
        os.fsync(log._file.fileno())
    log.entries = 0


class FullSnapshotIngestor(UplinkIngestor):
    """:class:`UplinkIngestor` with the superseded durability pair."""

    def _checkpoint_path(self) -> Path:
        return self.directory / "checkpoint.json"

    def checkpoint(self) -> None:
        """Atomically persist store + dedup state, then truncate the
        log (its contents are now folded into the checkpoint)."""
        self.flush()
        doc = {
            "schema": CHECKPOINT_SCHEMA,
            "store": self.service.snapshot(),
            "dedup": {
                source: dedup.to_json()
                for source, dedup in sorted(self.dedup.items())
            },
            # Admitted-but-unapplied records must survive the log
            # truncation below -- they are durable, just waiting for
            # lower seqs before the store may see them.
            "held": {
                source: [row for _, row in sorted(held.items())]
                for source, held in sorted(self._held.items()) if held
            },
        }
        path = self._checkpoint_path()
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            # json.dumps takes the C encoder; json.dump never does.
            handle.write(
                json.dumps(doc, separators=(",", ":"), sort_keys=True)
            )
            handle.flush()
            if self.fsync != "never":
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        _reset(self.log)
        self.checkpoints += 1
        self._since_checkpoint = 0

    @classmethod
    def recover(
        cls,
        directory: Path,
        service_config: Optional[ServiceConfig] = None,
        fsync: str = "rotate",
        checkpoint_every: Optional[int] = 8,
    ) -> Tuple["UplinkIngestor", IngestRecoveryReport]:
        """Rebuild an ingestor after a crash: checkpoint, then log
        replay *through the dedup layer* (idempotent by construction)."""
        directory = Path(directory)
        report = IngestRecoveryReport()
        service = TelemetryService(service_config)
        dedup: Dict[str, DedupWatermark] = {}
        held: Dict[str, Dict[int, list]] = {}

        checkpoint_path = directory / "checkpoint.json"
        if checkpoint_path.exists():
            data = json.loads(checkpoint_path.read_text(encoding="utf-8"))
            if data.get("schema") != CHECKPOINT_SCHEMA:
                raise SchemaVersionError(
                    "uplink checkpoint", data.get("schema"), CHECKPOINT_SCHEMA
                )
            service.restore(data["store"])
            dedup = {
                source: DedupWatermark.from_json(state)
                for source, state in data.get("dedup", {}).items()
            }
            for source, rows in data.get("held", {}).items():
                held[source] = {row[-1]: row for row in rows}
            report.checkpoint_loaded = True

        log = RecordLog.open_existing(directory / "ingest-wal.log", fsync)
        report.truncated_lines = log.truncated
        for row, marker in log.replayed:
            if row is not None:
                report.replayed_records += 1
                source_dedup = dedup.get(row[1])
                if source_dedup is None:
                    source_dedup = dedup[row[1]] = DedupWatermark()
                if source_dedup.admit(row[-1]):
                    held.setdefault(row[1], {})[row[-1]] = row
                    report.replayed_fresh += 1
            elif marker is not None:
                source, seq = marker
                source_dedup = dedup.get(source)
                if source_dedup is None:
                    source_dedup = dedup[source] = DedupWatermark()
                source_dedup.advance_to(seq)
                report.replayed_markers += 1
        # Apply in seq order per source, exactly as the live path
        # would have; what stays held is above the watermark.
        for source, rows in sorted(held.items()):
            watermark = dedup[source].watermark
            ready = sorted(seq for seq in rows if seq <= watermark)
            if ready:
                service.ingest_batch([rows.pop(seq) for seq in ready])

        ingestor = cls(
            service, directory, fsync=fsync,
            checkpoint_every=checkpoint_every, _log=log,
        )
        ingestor.dedup = dedup
        ingestor._held = {s: h for s, h in held.items() if h}
        return ingestor, report
