"""Shared helper for the telemetry store unit tests."""

from repro.telemetry.records import TelemetryRecord
from repro.telemetry.store import ApplyOutcome, ChainStateStore


def apply_one(store: ChainStateStore, record: TelemetryRecord) -> ApplyOutcome:
    """Fold *record* through ``apply_batch`` as a one-row list.

    ``apply_batch`` materializes an outcome only for a record the alert
    engine acts on; an unflagged record gets the all-defaults
    :class:`ApplyOutcome`, which is what it would have carried.
    """
    flagged = store.apply_batch([record.to_wire()])
    return flagged[0] if flagged else ApplyOutcome(record)
