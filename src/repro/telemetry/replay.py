"""Stack replay: what a finished run's monitors recorded, as wire rows.

Monitors record; they publish nothing while the run is live.  Every
outcome lands in ``latencies`` (local and remote segment monitors), the
chain runtimes' reports and the degradation manager's ``transitions``,
and :func:`replay_stack_batch` turns those into one deterministic list
of wire rows -- how the fault campaign feeds the service's
:meth:`~repro.telemetry.service.TelemetryService.ingest_batch`.
:func:`stack_store_config` builds the store config that matches a
stack.

Timestamps in replayed streams are synthesized from activation index
and recorded latency (data time), never from a wall clock, so replays
are bit-stable across hosts and process placement.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def base_segment_name(segment_name: str) -> str:
    """Strip a keyed-monitor suffix: ``s2[front]`` -> ``s2``."""
    index = segment_name.find("[")
    return segment_name if index < 0 else segment_name[:index]


def stack_chain_map(stack) -> Dict[str, str]:
    """segment name -> chain name for one perception stack.

    A segment shared by several chains (the paper's fused segments) maps
    to the first chain in sorted order -- stable, if arbitrary; chain
    verdict records carry the authoritative per-chain truth.
    """
    chain_of: Dict[str, str] = {}
    for chain_name in sorted(stack.chain_runtimes):
        runtime = stack.chain_runtimes[chain_name]
        for segment in runtime.chain.segments:
            chain_of.setdefault(segment.name, chain_name)
    return chain_of


def replay_stack_batch(
    stack,
    source: str,
    n_frames: int,
    manager=None,
) -> List[Tuple]:
    """Deterministic wire rows of one finished stack run.

    Emission order (and therefore sequence numbering) is fixed:
    segment outcomes per monitor source in recorded order, sources
    sorted by name; then chain verdicts per activation, chains sorted;
    then degradation-mode transitions.  Timestamps are synthesized as
    ``activation * period + latency`` (data time).
    """
    chain_of = stack_chain_map(stack)
    period = stack.config.period
    rows: List[Tuple] = []
    append = rows.append

    sources = {}
    sources.update(stack.local_runtimes)
    sources.update(stack.remote_monitors)
    for name in sorted(sources):
        monitor = sources[name]
        segment_name = monitor.segment.name
        chain = chain_of.get(
            segment_name, chain_of.get(base_segment_name(segment_name), "")
        )
        # ``_value_``: enum's ``value`` is a Python property, a frame a row.
        for n, latency, outcome in monitor.latencies:
            append((
                "segment", source, chain, segment_name, n, latency,
                outcome._value_, "", n * period + max(0, latency), len(rows),
            ))

    for chain_name in sorted(stack.chain_runtimes):
        misses = stack.chain_runtimes[chain_name].misses(n_frames - 1)
        for n, violated in enumerate(misses):
            append((
                "chain", source, chain_name, "", n, None,
                "miss" if violated else "ok", "", (n + 1) * period, len(rows),
            ))

    if manager is not None:
        for t, _old, new, reason in manager.transitions:
            append((
                "mode", source, "", "", -1, None, reason, new._value_, t,
                len(rows),
            ))
    return rows


def stack_store_config(stack, n_shards: int = 8):
    """A :class:`~repro.telemetry.store.StoreConfig` matching a stack:
    per-chain (m,k) from the chain definitions, per-segment latency
    budgets from the assigned monitored deadlines (d_mon)."""
    from repro.telemetry.store import StoreConfig

    mk_by_chain = {
        name: (runtime.chain.mk.m, runtime.chain.mk.k)
        for name, runtime in stack.chain_runtimes.items()
    }
    budget_by_segment: Dict[str, int] = {}
    monitors = {}
    monitors.update(stack.local_runtimes)
    monitors.update(stack.remote_monitors)
    for monitor in monitors.values():
        segment = monitor.segment
        if segment.d_mon is not None:
            budget_by_segment[segment.name] = segment.d_mon
    return StoreConfig(
        n_shards=n_shards,
        mk_by_chain=mk_by_chain,
        budget_by_segment=budget_by_segment,
    )
