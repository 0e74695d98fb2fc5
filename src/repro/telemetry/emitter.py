"""Emitters: how monitors and stacks publish telemetry records.

Three layers of glue live here:

- :class:`TelemetryEmitter` -- owns one source identity (one
  vehicle/process), stamps the per-source monotonic ``seq`` every
  record carries, and forwards finished records to a sink callable
  (usually ``service.ingest``).
- :class:`MonitorTelemetrySink` -- implements the narrow hook contract
  the core monitors call (``segment_event`` / ``exception_event``; see
  ``telemetry_sinks`` on
  :class:`~repro.core.local_monitor.LocalSegmentRuntime` and
  :class:`~repro.core.remote_monitor.SyncRemoteMonitor`), resolving
  each segment to its chain and feeding the emitter.  The hook is
  guarded at the call sites, so an unmonitored run pays one falsy list
  check per event and nothing else.
- stack-level helpers -- :func:`attach_stack` wires a live
  :class:`~repro.perception.stack.PerceptionStack` (monitors, chain
  runtimes, optionally the degradation manager) to an emitter;
  :func:`replay_stack_batch` converts an already-finished run into a
  deterministic columnar record stream, which is how the fault campaign
  feeds the service (:func:`replay_stack_records` is its row view).

Timestamps in replayed streams are synthesized from activation index
and recorded latency (data time), never from a wall clock, so replays
are bit-stable across hosts and process placement.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from repro.telemetry.batch import RecordBatch
from repro.telemetry.records import RecordKind, TelemetryRecord

Sink = Callable[[TelemetryRecord], object]


def base_segment_name(segment_name: str) -> str:
    """Strip a keyed-monitor suffix: ``s2[front]`` -> ``s2``."""
    index = segment_name.find("[")
    return segment_name if index < 0 else segment_name[:index]


class TelemetryEmitter:
    """Stamps source identity + sequence numbers onto outgoing records."""

    __slots__ = ("source", "sink", "seq", "emitted", "spans")

    def __init__(self, source: str, sink: Sink):
        self.source = source
        self.sink = sink
        self.seq = 0
        self.emitted = 0
        #: Optional SpanRecorder (duck-typed; see repro.tracing.spans):
        #: when set, every emitted record leaves an instant span so the
        #: uplink/ingestion cost shows up in traces next to the chain.
        self.spans = None

    def _emit(self, record: TelemetryRecord) -> None:
        self.sink(record)
        self.emitted += 1
        if self.spans is not None:
            self.spans.instant(
                "telemetry.emit",
                "telemetry",
                ts=record.timestamp_ns,
                kind=record.kind.value,
                seq=record.seq,
            )

    def _next_seq(self) -> int:
        seq = self.seq
        self.seq = seq + 1
        return seq

    # ------------------------------------------------------------------
    def segment(
        self,
        chain: str,
        segment: str,
        activation: int,
        verdict: str,
        latency_ns: Optional[int],
        timestamp_ns: int,
    ) -> None:
        """One segment activation outcome."""
        self._emit(TelemetryRecord(
            kind=RecordKind.SEGMENT, source=self.source, chain=chain,
            segment=segment, activation=activation, latency_ns=latency_ns,
            verdict=verdict, timestamp_ns=timestamp_ns,
            seq=self._next_seq(),
        ))

    def chain(
        self, chain: str, activation: int, violated: bool, timestamp_ns: int
    ) -> None:
        """One finalized chain activation verdict."""
        self._emit(TelemetryRecord(
            kind=RecordKind.CHAIN, source=self.source, chain=chain,
            activation=activation, verdict="miss" if violated else "ok",
            timestamp_ns=timestamp_ns, seq=self._next_seq(),
        ))

    def exception(
        self,
        chain: str,
        segment: str,
        activation: int,
        detection_latency_ns: Optional[int],
        timestamp_ns: int,
    ) -> None:
        """One raised temporal exception (diagnostics stream)."""
        self._emit(TelemetryRecord(
            kind=RecordKind.EXCEPTION, source=self.source, chain=chain,
            segment=segment, activation=activation,
            latency_ns=detection_latency_ns, verdict="exception",
            timestamp_ns=timestamp_ns, seq=self._next_seq(),
        ))

    def mode(self, level: str, reason: str, timestamp_ns: int) -> None:
        """One degradation-mode transition."""
        self._emit(TelemetryRecord(
            kind=RecordKind.MODE, source=self.source, verdict=reason,
            level=level, timestamp_ns=timestamp_ns, seq=self._next_seq(),
        ))

    def heartbeat(self, timestamp_ns: int) -> None:
        """Liveness beacon."""
        self._emit(TelemetryRecord(
            kind=RecordKind.HEARTBEAT, source=self.source,
            timestamp_ns=timestamp_ns, seq=self._next_seq(),
        ))


class MonitorTelemetrySink:
    """The hook object core monitors call (``telemetry_sinks`` entries).

    Parameters
    ----------
    emitter:
        Destination emitter (owns source identity and sequencing).
    chain_of:
        segment name -> chain name; unknown segments map to ``""``.
        Keyed per-instance segment names (``s2[front]``) resolve via
        their base name.
    """

    __slots__ = ("emitter", "chain_of")

    def __init__(
        self, emitter: TelemetryEmitter, chain_of: Optional[Dict[str, str]] = None
    ):
        self.emitter = emitter
        self.chain_of = chain_of or {}

    def _chain(self, segment_name: str) -> str:
        chain = self.chain_of.get(segment_name)
        if chain is None:
            chain = self.chain_of.get(base_segment_name(segment_name), "")
        return chain

    def segment_event(
        self,
        segment_name: str,
        activation: int,
        verdict: str,
        latency_ns: Optional[int],
        timestamp_ns: int,
    ) -> None:
        self.emitter.segment(
            self._chain(segment_name), segment_name, activation, verdict,
            latency_ns, timestamp_ns,
        )

    def exception_event(
        self,
        segment_name: str,
        activation: int,
        detection_latency_ns: Optional[int],
        timestamp_ns: int,
    ) -> None:
        self.emitter.exception(
            self._chain(segment_name), segment_name, activation,
            detection_latency_ns, timestamp_ns,
        )

    def mode_event(self, old: str, new: str, reason: str, timestamp_ns: int) -> None:
        self.emitter.mode(new, reason, timestamp_ns)


# ----------------------------------------------------------------------
# Stack wiring
# ----------------------------------------------------------------------
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


def attach_stack(stack, emitter: TelemetryEmitter, manager=None) -> MonitorTelemetrySink:
    """Wire a live stack's monitors (and optional degradation manager)
    to *emitter*; returns the installed sink."""
    sink = MonitorTelemetrySink(emitter, stack_chain_map(stack))
    emitter.spans = getattr(stack.sim, "spans", None)
    for runtime in stack.local_runtimes.values():
        runtime.telemetry_sinks.append(sink)
    for monitor in stack.remote_monitors.values():
        monitor.telemetry_sinks.append(sink)
    if manager is not None:
        manager.telemetry_sinks.append(sink)
    return sink


def replay_stack_batch(
    stack,
    source: str,
    n_frames: int,
    manager=None,
) -> RecordBatch:
    """Deterministic record stream of one finished stack run, columnar.

    Emission order (and therefore sequence numbering) is fixed:
    segment outcomes per monitor source in recorded order, sources
    sorted by name; then chain verdicts per activation, chains sorted;
    then degradation-mode transitions.  Timestamps are synthesized as
    ``activation * period + latency`` (data time).
    """
    chain_of = stack_chain_map(stack)
    period = stack.config.period
    chains: List[str] = []
    segments: List[str] = []
    activations: List[int] = []
    latencies: List[Optional[int]] = []
    verdicts: List[str] = []
    timestamps: List[int] = []

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
            activations.append(n)
            latencies.append(latency)
            verdicts.append(outcome.value)
            timestamps.append(n * period + max(0, latency))
        chains += [chain] * len(monitor.latencies)
        segments += [segment_name] * len(monitor.latencies)
    kinds = [RecordKind.SEGMENT] * len(activations)

    for chain_name in sorted(stack.chain_runtimes):
        misses = stack.chain_runtimes[chain_name].finalize(n_frames - 1).misses
        kinds += [RecordKind.CHAIN] * len(misses)
        chains += [chain_name] * len(misses)
        segments += [""] * len(misses)
        activations += range(len(misses))
        latencies += [None] * len(misses)
        verdicts += ["miss" if violated else "ok" for violated in misses]
        timestamps += range(period, (len(misses) + 1) * period, period)
    levels = [""] * len(kinds)

    if manager is not None:
        for t, _old, new, reason in manager.transitions:
            kinds.append(RecordKind.MODE)
            chains.append("")
            segments.append("")
            activations.append(-1)
            latencies.append(None)
            verdicts.append(reason)
            levels.append(new.value)
            timestamps.append(t)

    return RecordBatch(
        kinds, [source] * len(kinds), chains, segments, activations,
        latencies, verdicts, levels, timestamps, range(len(kinds)),
    )


def replay_stack_records(
    stack,
    source: str,
    n_frames: int,
    manager=None,
) -> Iterator[TelemetryRecord]:
    """:func:`replay_stack_batch`, one :class:`TelemetryRecord` per row."""
    return iter(replay_stack_batch(stack, source, n_frames, manager).to_records())


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
