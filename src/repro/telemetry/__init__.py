"""Fleet telemetry: ingest monitoring verdicts at scale, alert early.

The paper's monitors detect deadline misses *inside* one
vehicle/process.  This package is the fleet-side counterpart a safety
case needs: what the monitors record becomes flat
:mod:`~repro.telemetry.records`, written as columns by
:mod:`~repro.telemetry.replay` and the load generator, a
:mod:`~repro.telemetry.service` with bounded admission and explicit
backpressure accounting folds them into a sharded
:mod:`~repro.telemetry.store` of incremental (m,k) automata and
streaming latency histograms, and a rules-based
:mod:`~repro.telemetry.alerts` engine raises operator alerts *before*
constraints are violated.  ``python -m repro telemetry`` drives it all
with a deterministic multi-vehicle :mod:`~repro.telemetry.loadgen`.

Getting records from the vehicle to the fleet over a real (lossy,
partitioning, crashing) link is :mod:`repro.telemetry.uplink`: durable
store-and-forward spooling, a windowed-ARQ transport client, idempotent
at-least-once ingestion, and the ``python -m repro chaos`` sweep that
proves the whole path under adversarial faults.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.alerts": (
        "Alert", "AlertEngine", "AlertLog", "AlertSeverity",
        "RULE_HEARTBEAT", "RULE_LATENCY_BUDGET", "RULE_MK_MARGIN",
        "RULE_MK_VIOLATION", "RULE_QUEUE_DROPS", "RULE_SEQ_GAP",
    ),
    "repro.telemetry.loadgen": (
        "FleetConfig", "FleetLoadGenerator", "LoadReport", "run_load",
    ),
    "repro.telemetry.records": (
        "RecordKind", "WIRE_SCHEMA",
    ),
    "repro.telemetry.replay": (
        "replay_stack_batch", "stack_chain_map", "stack_store_config",
    ),
    "repro.telemetry.service": ("ServiceConfig", "TelemetryService"),
    "repro.telemetry.store": (
        "ChainState", "ChainStateStore", "SourceState", "StoreConfig",
    ),
})
