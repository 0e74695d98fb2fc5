"""The telemetry wire format: one flat row per monitored event.

The wire row is the only shape a telemetry record has, in memory and on
the wire: every producer (the stack replay, the load generator, the
adaptive vehicles) builds rows, and the spool, the journal, the codec,
the store fold, the gateway's shed hook and the control plane's window
read them.  The format is deliberately *flat and positional* -- ten
fields, no nesting -- so it survives transports that only move tuples
(multiprocessing queues, JSON lines, shared-memory rings) and so
encoding stays off the monitor hot path's critical section.

Wire schema ``repro-telemetry/1``: a row is the JSON array

    [kind, source, chain, segment, activation, latency_ns, verdict,
     level, timestamp_ns, seq]

with ``kind`` one of :data:`KINDS`, ``source`` the vehicle/process
identity, ``seq`` a per-source monotonic sequence number (the store
uses it for gap accounting), and ``timestamp_ns`` the producer's clock.
Unused fields carry ``""`` / ``None`` -- never omitted, so field
positions are stable across kinds.  A consumer reads a field through
the column positions named here (``row[SEQ]``), never through a literal
index, and names a kind through its ``KIND_*`` constant, never through
a string literal, so a misspelt kind fails at import.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter

#: Schema identifier of the wire record format.
WIRE_SCHEMA = "repro-telemetry/1"

#: Number of positional fields in one wire record.
WIRE_FIELDS = 10

#: Column positions of a wire row.
(KIND, SOURCE, CHAIN, SEGMENT, ACTIVATION, LATENCY_NS, VERDICT, LEVEL,
 TIMESTAMP_NS, SEQ) = range(WIRE_FIELDS)


#: The record kinds, as their wire strings (``row[KIND]``).
#: One segment activation outcome (OK/RECOVERED/MISS/SKIPPED).
KIND_SEGMENT = "segment"
#: One finalized chain activation verdict (``verdict`` ok/miss).
KIND_CHAIN = "chain"
#: A raised temporal exception (diagnostics; no (m,k) effect).
KIND_EXCEPTION = "exception"
#: A degradation-mode transition (``level`` = new mode).
KIND_MODE = "mode"
#: Liveness beacon from a source with no other traffic.
KIND_HEARTBEAT = "heartbeat"

#: Every record kind.
KINDS = frozenset(
    (KIND_SEGMENT, KIND_CHAIN, KIND_EXCEPTION, KIND_MODE, KIND_HEARTBEAT)
)

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
        and KINDS.issuperset(map(itemgetter(KIND), rows))
    )


def wire_rows_ok(rows: list) -> bool:
    """True when every element of *rows* is a well-typed wire row held
    as a ``list`` (what a JSON parse yields): the one check rows from
    outside the process (an uplink frame, a log read back) pass before
    any field is compared or kept."""
    return not rows or (
        set(map(type, rows)) == {list} and wire_fields_ok(rows)
    )
