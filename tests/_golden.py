"""Golden-trace digests: a compact fingerprint of a simulation run.

The digest hashes every buffered trace event (name, timestamp and a
canonical rendering of its fields) plus, optionally, the monitored
latency series of a stack.  Two runs with the same seed and the same
*observable* behavior produce the same digest -- which makes digests the
oracle for hot-path optimizations: any refactor of the kernel, the
scheduler or the DDS delivery path must leave them bit-identical.

``tests/golden/golden_digests.json`` pins the digests of three
representative scenarios; ``tests/test_golden_traces.py`` recomputes
them on every CI run.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterable

from repro.experiments.common import GOLDEN_SCENARIOS, golden_config
from repro.perception.stack import PerceptionStack
from repro.tracing.tracer import Tracer


def _canonical_fields(fields: dict) -> str:
    """Stable rendering of a trace event's field dict."""
    return ",".join(f"{key}={fields[key]!r}" for key in sorted(fields))


def trace_digest(tracer: Tracer) -> str:
    """SHA-256 over every buffered trace event, bucketed by name.

    Events within one name are in recording (time) order; names are
    visited sorted, so the digest does not depend on dict iteration
    order.
    """
    digest = hashlib.sha256()
    for name in tracer.names():
        for event in tracer.events(name):
            line = f"{name}|{event.timestamp}|{_canonical_fields(event.fields)}\n"
            digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def latency_digest(series_by_segment: Dict[str, Iterable[int]]) -> str:
    """SHA-256 over per-segment monitored latency series."""
    digest = hashlib.sha256()
    for name in sorted(series_by_segment):
        values = ",".join(str(v) for v in series_by_segment[name])
        digest.update(f"{name}|{values}\n".encode("utf-8"))
    return digest.hexdigest()


#: Frames per golden scenario -- small enough for CI, long enough to
#: exercise monitors, recoveries and remote deadline handling.
GOLDEN_FRAMES = 12


def golden_scenarios() -> Dict[str, Callable[[], PerceptionStack]]:
    """The pinned scenario matrix: ``<name>_seed<seed>`` -> zero-arg
    stack factory over ``experiments.common.GOLDEN_SCENARIOS``."""
    return {
        f"{name}_seed{keywords['seed']}":
            lambda name=name: PerceptionStack(golden_config(name))
        for name, keywords in GOLDEN_SCENARIOS.items()
    }


def compute_golden_digests(n_frames: int = GOLDEN_FRAMES) -> Dict[str, Dict[str, str]]:
    """Run every golden scenario and fingerprint it."""
    out = {}
    for name, factory in golden_scenarios().items():
        stack = factory()
        stack.run(n_frames=n_frames)
        out[name] = stack_fingerprint(stack)
    return out


def stack_fingerprint(stack) -> Dict[str, str]:
    """Digest a finished :class:`~repro.perception.stack.PerceptionStack` run.

    Returns ``{"trace": ..., "latencies": ..., "final_time": ...}`` --
    the triple pinned per scenario by the golden-trace suite.
    """
    latencies = {}
    for name, runtime in getattr(stack, "local_runtimes", {}).items():
        latencies[name] = [lat for _n, lat, _o in runtime.latencies]
    for name, monitor in getattr(stack, "remote_monitors", {}).items():
        latencies[name] = [lat for _n, lat, _o in monitor.latencies]
    return {
        "trace": trace_digest(stack.tracer),
        "latencies": latency_digest(latencies),
        "final_time": str(stack.sim.now),
    }
