"""Durable store-and-forward telemetry uplink.

Vehicle side: :class:`WalSpooler` (append-before-emit write-ahead log)
drained by :class:`WindowedUplinkClient` (sliding frame window,
per-frame timeout with exponential backoff and deterministic jitter,
circuit breaker) over an :class:`AdversarialChannel`.  Fleet side:
:class:`UplinkIngestor` (at-least-once in, exactly-once applied via
:class:`DedupWatermark`, append-before-ack durability, checkpoint +
WAL-replay recovery).
:mod:`repro.telemetry.uplink.chaos` sweeps fault x crash schedules and
asserts the ledger law ``offered == acked + spooled + evicted + shed``.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.uplink.chaos": (
        "ChaosConfig", "ChaosDriver", "ChaosScenario", "CrashEvent",
        "default_scenarios", "run_chaos",
    ),
    "repro.telemetry.uplink.ingest": (
        "CHECKPOINT_SCHEMA", "DedupWatermark", "IngestRecoveryReport",
        "UplinkIngestor", "store_digest",
    ),
    "repro.telemetry.uplink.transport": (
        "ACK_SCHEMA", "FRAME_SCHEMA", "AdversarialChannel", "ChannelFaultPlan",
        "ChannelStats", "decode_envelope", "decode_frame", "encode_ack",
        "encode_envelope", "encode_frame",
    ),
    "repro.telemetry.uplink.window": (
        "CircuitState", "WindowedClientConfig", "WindowedUplinkClient",
    ),
    "repro.telemetry.uplink.wal": (
        "FSYNC_POLICIES", "RecordLog", "RecoveryReport", "WAL_SCHEMA",
        "WalConfig", "WalCorruptionError", "WalSpooler",
    ),
})
