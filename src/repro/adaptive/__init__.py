"""Closed-loop adaptive budget control plane.

The offline workflow (trace -> CSP -> deploy, :mod:`repro.budgeting`)
assumes the fleet's latency distributions stand still.  They do not:
load, degradation and fault bursts shift them, and a ``d_mon``
assignment derived last week silently loses its meaning.  This package
closes the loop -- and does it robustness-first, because an online
controller in a safety-critical system must be unable to make things
worse:

- :mod:`repro.adaptive.epochs` -- versioned, content-addressed budget
  epochs and the durable append-only epoch ledger whose replay enforces
  the control plane's core invariant (publish only what validated);
- :mod:`repro.adaptive.resolver` -- re-derives ``d_mon`` online from
  the telemetry window, the store's streaming histograms and the
  tracing layer's critical-path attribution weights;
- :mod:`repro.adaptive.shadow` -- validates every candidate epoch on a
  shadow replica before it can touch a vehicle;
- :mod:`repro.adaptive.downlink` / :mod:`repro.adaptive.vehicle` --
  exactly-once epoch distribution over the existing uplink channel
  (epoch-versioned, monotonic, append-before-ack);
- :mod:`repro.adaptive.controlplane` -- canary-cohort staging,
  regression detection and automatic rollback to last-good;
- :mod:`repro.adaptive.chaos` -- the ``python -m repro adapt`` chaos
  sweep that proves the invariants under frame loss, duplication,
  reordering, crashes and partitions.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.adaptive.epochs": (
        "EPOCH_SCHEMA", "LEDGER_SCHEMA", "BudgetEpoch", "EpochLedger",
        "EpochLedgerError", "EpochStatus",
    ),
    "repro.adaptive.resolver": (
        "BudgetResolver", "ChainResolution", "ResolveOutcome",
        "ResolverConfig",
    ),
    "repro.adaptive.shadow": (
        "ShadowValidator", "ShadowVerdict",
    ),
    "repro.adaptive.downlink": ("DistributorConfig", "EpochDistributor"),
    "repro.adaptive.vehicle": (
        "SimulatedApplyCrash", "VehicleEpochAgent", "VehicleRecoveryReport",
    ),
    "repro.adaptive.controlplane": (
        "BudgetControlPlane", "ControlPlaneConfig", "ControlPlaneState",
    ),
})
