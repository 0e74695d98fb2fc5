"""The telemetry wire format: one flat record per monitored event.

A :class:`TelemetryRecord` is the unit every producer (local monitors,
remote monitors, chain runtimes, the degradation manager, heartbeat
timers) publishes and the ingestion service consumes.  The format is
deliberately *flat and positional* -- ten fields, no nesting -- so it
survives transports that only move tuples (multiprocessing queues,
JSON lines, shared-memory rings) and so encoding stays off the monitor
hot path's critical section.

Wire schema ``repro-telemetry/1``: a record is the JSON array

    [kind, source, chain, segment, activation, latency_ns, verdict,
     level, timestamp_ns, seq]

with ``kind`` one of :class:`RecordKind`'s values, ``source`` the
vehicle/process identity, ``seq`` a per-source monotonic sequence
number (the store uses it for gap accounting), and ``timestamp_ns`` the
producer's clock.  Unused fields carry ``""`` / ``None`` -- never
omitted, so field positions are stable across kinds.
"""

from __future__ import annotations

import enum
from itertools import repeat
from operator import itemgetter
from typing import Optional, Tuple

#: Schema identifier of the wire record format.
WIRE_SCHEMA = "repro-telemetry/1"

#: Number of positional fields in one wire record.
WIRE_FIELDS = 10


class RecordKind(enum.Enum):
    """What kind of event a record describes."""

    #: One segment activation outcome (OK/RECOVERED/MISS/SKIPPED).
    SEGMENT = "segment"
    #: One finalized chain activation verdict (``verdict`` ok/miss).
    CHAIN = "chain"
    #: A raised temporal exception (diagnostics; no (m,k) effect).
    EXCEPTION = "exception"
    #: A degradation-mode transition (``level`` = new mode).
    MODE = "mode"
    #: Liveness beacon from a source with no other traffic.
    HEARTBEAT = "heartbeat"


#: Fast path: wire string -> RecordKind (Enum call is surprisingly slow).
KIND_BY_VALUE = {kind.value: kind for kind in RecordKind}

#: The field types of a well-typed wire row, by position: only
#: ``latency_ns`` may be ``None`` (exact types: ``type(True)`` is
#: ``bool``, so a bool is not an int here).
_WIRE_SIGNATURES = frozenset(
    (str, str, str, str, int, latency, str, str, int, int)
    for latency in (int, type(None))
)


def wire_fields_ok(rows) -> bool:
    """True when every element of *rows* -- a ``list`` or a ``tuple`` --
    holds :data:`WIRE_FIELDS` scalars of the right types with a known
    kind.  Each row's tuple of field types is one set lookup, so the
    check runs no Python code per row.  The vehicle spool checks each
    batch with it before a row is encoded."""
    return (
        {list, tuple}.issuperset(map(type, rows))
        and _WIRE_SIGNATURES.issuperset(
            map(tuple, map(map, repeat(type), rows))
        )
        and KIND_BY_VALUE.keys() >= set(map(itemgetter(0), rows))
    )


def wire_rows_ok(rows: list) -> bool:
    """True when every element of *rows* is a well-typed wire row held
    as a ``list`` (what a JSON parse yields): the one check rows from
    outside the process (an uplink frame, a log read back) pass before
    any field is compared or kept."""
    return not rows or (
        set(map(type, rows)) == {list} and wire_fields_ok(rows)
    )


class TelemetryRecord:
    """One telemetry event in memory.

    ``__slots__`` keeps the per-record footprint small: an ingest run
    holds tens of thousands of these at a time in the bounded queue.
    """

    __slots__ = (
        "kind", "source", "chain", "segment", "activation",
        "latency_ns", "verdict", "level", "timestamp_ns", "seq",
    )

    def __init__(
        self,
        kind: RecordKind,
        source: str,
        chain: str = "",
        segment: str = "",
        activation: int = -1,
        latency_ns: Optional[int] = None,
        verdict: str = "",
        level: str = "",
        timestamp_ns: int = 0,
        seq: int = 0,
    ):
        self.kind = kind
        self.source = source
        self.chain = chain
        self.segment = segment
        self.activation = activation
        self.latency_ns = latency_ns
        self.verdict = verdict
        self.level = level
        self.timestamp_ns = timestamp_ns
        self.seq = seq

    # ------------------------------------------------------------------
    def to_wire(self) -> Tuple:
        """The positional wire tuple (JSON-serializable)."""
        return (
            self.kind._value_, self.source, self.chain, self.segment,
            self.activation, self.latency_ns, self.verdict, self.level,
            self.timestamp_ns, self.seq,
        )

    @classmethod
    def from_wire(cls, fields: Tuple) -> "TelemetryRecord":
        """Rebuild a record from its wire tuple; validates the kind."""
        if len(fields) != WIRE_FIELDS:
            raise ValueError(
                f"wire record needs {WIRE_FIELDS} fields, got {len(fields)}"
            )
        if fields[0] not in KIND_BY_VALUE:
            raise ValueError(f"unknown record kind {fields[0]!r}")
        return record_from_row(fields)

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, TelemetryRecord):
            return NotImplemented
        return self.to_wire() == other.to_wire()

    def __hash__(self) -> int:
        return hash(self.to_wire())

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TelemetryRecord {self.kind.value} {self.source} "
            f"{self.chain or self.segment} n={self.activation} "
            f"verdict={self.verdict!r} seq={self.seq}>"
        )


def record_from_row(row) -> TelemetryRecord:
    """The record of a wire row built in-process or already checked by
    :func:`wire_rows_ok`: :meth:`TelemetryRecord.from_wire` without its
    checks (the load generator's records, a flagged row's outcome)."""
    record = TelemetryRecord.__new__(TelemetryRecord)
    (kind, record.source, record.chain, record.segment, record.activation,
     record.latency_ns, record.verdict, record.level, record.timestamp_ns,
     record.seq) = row
    record.kind = KIND_BY_VALUE[kind]
    return record


def segment_record(
    source: str,
    chain: str,
    segment: str,
    activation: int,
    latency_ns: Optional[int],
    verdict: str,
    timestamp_ns: int,
    seq: int,
) -> TelemetryRecord:
    """Convenience constructor for the most common record kind."""
    return TelemetryRecord(
        kind=RecordKind.SEGMENT, source=source, chain=chain, segment=segment,
        activation=activation, latency_ns=latency_ns, verdict=verdict,
        timestamp_ns=timestamp_ns, seq=seq,
    )
