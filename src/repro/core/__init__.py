"""The paper's contribution: online latency monitoring of event chains.

Model (Sec. III-A)
    :mod:`~repro.core.events`, :mod:`~repro.core.segments`,
    :mod:`~repro.core.chains` -- event chains as gap-free alternating
    sequences of local and remote segments delimited by communication
    events, with latency budget ``B_e2e``, throughput bound ``B_seg`` and
    a weakly-hard (m,k) constraint (:mod:`~repro.core.weakly_hard`).

Mechanisms (Sec. III-B, IV)
    :mod:`~repro.core.exceptions` -- temporal exceptions and the
    recovery/propagation algorithms (paper Algorithms 1 and 2).
    :mod:`~repro.core.local_monitor` -- the high-priority monitor thread
    fed by ring buffers and a semaphore, monitoring local segments.
    :mod:`~repro.core.remote_monitor` -- receiver-side monitoring of
    remote segments: the synchronization-based approach (proposed) and
    the inter-arrival approach (DDS deadline baseline).
    :mod:`~repro.core.chain_runtime` -- end-to-end supervision: per
    activation outcomes, miss propagation and (m,k) verdicts.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.events": ("EventKind", "EventPoint"),
    "repro.core.weakly_hard": (
        "MKConstraint", "MKAutomaton", "max_window_misses",
    ),
    "repro.core.segments": ("Segment", "SegmentKind"),
    "repro.core.chains": ("EventChain",),
    "repro.core.exceptions": (
        "ExceptionContext", "ExceptionHandler", "PropagateAlways",
        "RecoverAlways", "RecoverUpTo", "TemporalException",
    ),
    "repro.core.local_monitor": (
        "LocalSegmentRuntime", "MonitorThread", "SkipGate",
    ),
    "repro.core.remote_monitor": (
        "InterArrivalMonitor", "KeyedSyncMonitorGroup", "SyncRemoteMonitor",
        "TimeoutContext",
    ),
    "repro.core.chain_runtime": (
        "ActivationOutcome", "ChainRuntime", "Outcome",
    ),
})
