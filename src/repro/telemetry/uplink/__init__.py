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

from repro.telemetry.uplink.chaos import (
    ChaosConfig,
    ChaosDriver,
    ChaosScenario,
    CrashEvent,
    default_scenarios,
    run_chaos,
)
from repro.telemetry.uplink.ingest import (
    CHECKPOINT_SCHEMA,
    DedupWatermark,
    IngestRecoveryReport,
    UplinkIngestor,
    store_digest,
)
from repro.telemetry.uplink.transport import (
    ACK_SCHEMA,
    FRAME_SCHEMA,
    AdversarialChannel,
    ChannelFaultPlan,
    ChannelStats,
    decode_envelope,
    decode_frame,
    encode_ack,
    encode_envelope,
    encode_frame,
)
from repro.telemetry.uplink.window import (
    CircuitState,
    WindowedClientConfig,
    WindowedUplinkClient,
)
from repro.telemetry.uplink.wal import (
    FSYNC_POLICIES,
    RecordLog,
    RecoveryReport,
    WAL_SCHEMA,
    WalConfig,
    WalCorruptionError,
    WalSpooler,
)

__all__ = [
    "ACK_SCHEMA",
    "AdversarialChannel",
    "CHECKPOINT_SCHEMA",
    "ChannelFaultPlan",
    "ChannelStats",
    "ChaosConfig",
    "ChaosDriver",
    "ChaosScenario",
    "CircuitState",
    "CrashEvent",
    "DedupWatermark",
    "FRAME_SCHEMA",
    "FSYNC_POLICIES",
    "IngestRecoveryReport",
    "RecordLog",
    "RecoveryReport",
    "UplinkIngestor",
    "WAL_SCHEMA",
    "WalConfig",
    "WalCorruptionError",
    "WalSpooler",
    "WindowedClientConfig",
    "WindowedUplinkClient",
    "decode_envelope",
    "decode_frame",
    "default_scenarios",
    "encode_ack",
    "encode_envelope",
    "encode_frame",
    "run_chaos",
    "store_digest",
]
