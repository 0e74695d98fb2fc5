"""The ``TelemetryEmitter``-driven stack replay ``repro.telemetry``
shipped until PR 22.

``repro.telemetry.emitter.replay_stack_batch`` writes the ten columns
of a finished run in one pass and is the only replay under ``src/``;
this is the loop it replaced -- one ``TelemetryEmitter.segment`` /
``chain`` / ``mode`` call, hence one ``TelemetryRecord``, per outcome --
moved here verbatim.  It is the oracle of
``tests/test_campaign_trace_free.py``: same emission order, same
sequence numbering, same synthesized timestamps.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.telemetry.emitter import (
    TelemetryEmitter,
    base_segment_name,
    stack_chain_map,
)
from repro.telemetry.records import TelemetryRecord


def replay_stack_records(
    stack,
    source: str,
    n_frames: int,
    manager=None,
) -> Iterator[TelemetryRecord]:
    """Deterministic record stream of one finished stack run."""
    emitted: List[TelemetryRecord] = []
    emitter = TelemetryEmitter(source, emitted.append)
    chain_of = stack_chain_map(stack)
    period = stack.config.period

    sources = {}
    sources.update(stack.local_runtimes)
    sources.update(stack.remote_monitors)
    for name in sorted(sources):
        monitor = sources[name]
        segment_name = monitor.segment.name
        chain = chain_of.get(
            segment_name, chain_of.get(base_segment_name(segment_name), "")
        )
        for n, latency, outcome in monitor.latencies:
            timestamp = n * period + max(0, latency)
            emitter.segment(
                chain, segment_name, n, outcome.value, latency, timestamp
            )

    for chain_name in sorted(stack.chain_runtimes):
        runtime = stack.chain_runtimes[chain_name]
        report = runtime.finalize(n_frames - 1)
        for n, violated in enumerate(report.misses):
            emitter.chain(chain_name, n, violated, (n + 1) * period)

    if manager is not None:
        for t, old, new, reason in manager.transitions:
            emitter.mode(new.value, reason, t)

    return iter(emitted)
