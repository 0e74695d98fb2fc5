"""Shared helpers for the telemetry unit tests."""

from repro.telemetry.store import ApplyOutcome, ChainStateStore


def wire_row(
    kind: str,
    source: str,
    chain: str = "",
    segment: str = "",
    activation: int = -1,
    latency_ns=None,
    verdict: str = "",
    level: str = "",
    timestamp_ns: int = 0,
    seq: int = 0,
) -> tuple:
    """One wire row, in wire order; a field a kind does not use carries
    ``""`` / ``-1`` / ``None``."""
    return (kind, source, chain, segment, activation, latency_ns, verdict,
            level, timestamp_ns, seq)


def apply_one(store: ChainStateStore, row) -> ApplyOutcome:
    """Fold *row* through ``apply_batch`` as a one-row list.

    ``apply_batch`` materializes an outcome only for a row the alert
    engine acts on; an unflagged row gets the all-defaults
    :class:`ApplyOutcome`, which is what it would have carried.
    """
    flagged = store.apply_batch([row])
    return flagged[0] if flagged else ApplyOutcome(row)
