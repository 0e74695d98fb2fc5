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

from repro.core.events import EventKind, EventPoint
from repro.core.weakly_hard import (
    MKConstraint,
    MKAutomaton,
    max_window_misses,
    satisfies_mk,
)
from repro.core.segments import Segment, SegmentKind
from repro.core.chains import EventChain
from repro.core.exceptions import (
    ExceptionContext,
    ExceptionHandler,
    PropagateAlways,
    RecoverAlways,
    RecoverUpTo,
    TemporalException,
)
from repro.core.local_monitor import LocalSegmentRuntime, MonitorThread, SkipGate
from repro.core.remote_monitor import (
    InterArrivalMonitor,
    KeyedSyncMonitorGroup,
    SyncRemoteMonitor,
    TimeoutContext,
)
from repro.core.chain_runtime import ActivationOutcome, ChainRuntime, Outcome
from repro.core.dag import DagChain, DagPath
from repro.core.dag_runtime import DagChainRuntime

__all__ = [
    "EventKind",
    "EventPoint",
    "MKConstraint",
    "MKAutomaton",
    "max_window_misses",
    "satisfies_mk",
    "Segment",
    "SegmentKind",
    "EventChain",
    "ExceptionContext",
    "ExceptionHandler",
    "PropagateAlways",
    "RecoverAlways",
    "RecoverUpTo",
    "TemporalException",
    "LocalSegmentRuntime",
    "MonitorThread",
    "SkipGate",
    "InterArrivalMonitor",
    "KeyedSyncMonitorGroup",
    "SyncRemoteMonitor",
    "TimeoutContext",
    "ActivationOutcome",
    "ChainRuntime",
    "Outcome",
    "DagChain",
    "DagPath",
    "DagChainRuntime",
]
