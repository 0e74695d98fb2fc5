"""Struct-of-arrays record batches for the telemetry hot path.

Folding one :class:`TelemetryRecord` object at a time makes every field
read a slot-descriptor lookup and charges every record a full method
call.  At fleet rates that per-record constant dominates, so the store
works on a :class:`RecordBatch` instead -- ten parallel Python lists,
one per wire field -- which lets it group records by key once, bind
columns to locals, and run vectorized (m,k) automaton updates per
shard.

A batch is a *view format*, not a new schema: ``from_records`` /
``to_records`` round-trip losslessly through the existing
:class:`TelemetryRecord`, ``from_rows`` builds the same columns from
decoded wire rows without a record object in between (the fleet path),
and :meth:`record` materializes a single row on demand (the store only
does this for the rare flagged record that becomes alert-engine input).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, List, Optional, Sequence

from repro.telemetry.records import KIND_BY_VALUE, RecordKind, TelemetryRecord

#: One attrgetter per column, bound once: ``map(getter, records)`` runs
#: the whole transpose at C speed instead of one interpreted loop
#: iteration per record.
_GETTERS = tuple(
    attrgetter(name)
    for name in (
        "kind", "source", "chain", "segment", "activation",
        "latency_ns", "verdict", "level", "timestamp_ns", "seq",
    )
)

__all__ = ["RecordBatch"]


class RecordBatch:
    """Columnar view of a telemetry record stream (wire field order)."""

    __slots__ = (
        "kinds", "sources", "chains", "segments", "activations",
        "latencies", "verdicts", "levels", "timestamps", "seqs",
    )

    def __init__(
        self,
        kinds: Sequence[RecordKind],
        sources: Sequence[str],
        chains: Sequence[str],
        segments: Sequence[str],
        activations: Sequence[int],
        latencies: Sequence[Optional[int]],
        verdicts: Sequence[str],
        levels: Sequence[str],
        timestamps: Sequence[int],
        seqs: Sequence[int],
    ):
        n = len(kinds)
        columns = (
            sources, chains, segments, activations, latencies,
            verdicts, levels, timestamps, seqs,
        )
        if any(len(col) != n for col in columns):
            raise ValueError("all RecordBatch columns must have equal length")
        self.kinds = list(kinds)
        self.sources = list(sources)
        self.chains = list(chains)
        self.segments = list(segments)
        self.activations = list(activations)
        self.latencies = list(latencies)
        self.verdicts = list(verdicts)
        self.levels = list(levels)
        self.timestamps = list(timestamps)
        self.seqs = list(seqs)

    def __len__(self) -> int:
        return len(self.kinds)

    @classmethod
    def from_records(cls, records: Iterable[TelemetryRecord]) -> "RecordBatch":
        """Transpose a record stream into columns (ten C-speed maps)."""
        if not isinstance(records, (list, tuple)):
            records = list(records)
        batch = cls.__new__(cls)
        (batch.kinds, batch.sources, batch.chains, batch.segments,
         batch.activations, batch.latencies, batch.verdicts, batch.levels,
         batch.timestamps, batch.seqs) = (
            list(map(getter, records)) for getter in _GETTERS
        )
        return batch

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RecordBatch":
        """Transpose at least one wire row (each already checked by
        :func:`~repro.telemetry.records.wire_rows_ok`) into columns."""
        batch = cls.__new__(cls)
        (kinds, batch.sources, batch.chains, batch.segments,
         batch.activations, batch.latencies, batch.verdicts, batch.levels,
         batch.timestamps, batch.seqs) = map(list, zip(*rows))
        batch.kinds = [KIND_BY_VALUE[kind] for kind in kinds]
        return batch

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """Rows ``start:stop`` as a new batch (capacity truncation,
        chunked ingest)."""
        batch = RecordBatch.__new__(RecordBatch)
        batch.kinds = self.kinds[start:stop]
        batch.sources = self.sources[start:stop]
        batch.chains = self.chains[start:stop]
        batch.segments = self.segments[start:stop]
        batch.activations = self.activations[start:stop]
        batch.latencies = self.latencies[start:stop]
        batch.verdicts = self.verdicts[start:stop]
        batch.levels = self.levels[start:stop]
        batch.timestamps = self.timestamps[start:stop]
        batch.seqs = self.seqs[start:stop]
        return batch

    def record(self, i: int) -> TelemetryRecord:
        """Materialize row *i* as a :class:`TelemetryRecord`."""
        record = TelemetryRecord.__new__(TelemetryRecord)
        record.kind = self.kinds[i]
        record.source = self.sources[i]
        record.chain = self.chains[i]
        record.segment = self.segments[i]
        record.activation = self.activations[i]
        record.latency_ns = self.latencies[i]
        record.verdict = self.verdicts[i]
        record.level = self.levels[i]
        record.timestamp_ns = self.timestamps[i]
        record.seq = self.seqs[i]
        return record

    def to_records(self) -> List[TelemetryRecord]:
        """Materialize every row (inverse of :meth:`from_records`)."""
        return [self.record(i) for i in range(len(self.kinds))]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RecordBatch n={len(self.kinds)}>"
