"""The ``TelemetryEmitter``-driven stack replay ``repro.telemetry``
used to ship, with the emitter it drove.

``repro.telemetry.replay.replay_stack_batch`` writes the wire rows of
a finished run in one pass and is the only replay under ``src/``; this
is the loop it replaced -- one ``TelemetryEmitter.segment`` / ``chain``
/ ``mode`` call, hence one record, per outcome -- and
``TelemetryEmitter`` itself, both moved here once no producer under
``src/`` built records one at a time (the records are wire rows now).
It is the oracle of ``tests/test_campaign_trace_free.py``: same
emission order, same sequence numbering, same synthesized timestamps.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from _telemetry import wire_row
from repro.telemetry.records import KIND, SEQ, TIMESTAMP_NS
from repro.telemetry.replay import base_segment_name, stack_chain_map

Sink = Callable[[tuple], object]


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

    def _emit(self, row: tuple) -> None:
        self.sink(row)
        self.emitted += 1
        if self.spans is not None:
            self.spans.instant(
                "telemetry.emit",
                "telemetry",
                ts=row[TIMESTAMP_NS],
                kind=row[KIND],
                seq=row[SEQ],
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
        self._emit(wire_row(
            "segment", self.source, chain=chain,
            segment=segment, activation=activation, latency_ns=latency_ns,
            verdict=verdict, timestamp_ns=timestamp_ns,
            seq=self._next_seq(),
        ))

    def chain(
        self, chain: str, activation: int, violated: bool, timestamp_ns: int
    ) -> None:
        """One finalized chain activation verdict."""
        self._emit(wire_row(
            "chain", self.source, chain=chain,
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
        self._emit(wire_row(
            "exception", self.source, chain=chain,
            segment=segment, activation=activation,
            latency_ns=detection_latency_ns, verdict="exception",
            timestamp_ns=timestamp_ns, seq=self._next_seq(),
        ))

    def mode(self, level: str, reason: str, timestamp_ns: int) -> None:
        """One degradation-mode transition."""
        self._emit(wire_row(
            "mode", self.source, verdict=reason,
            level=level, timestamp_ns=timestamp_ns, seq=self._next_seq(),
        ))

    def heartbeat(self, timestamp_ns: int) -> None:
        """Liveness beacon."""
        self._emit(wire_row(
            "heartbeat", self.source,
            timestamp_ns=timestamp_ns, seq=self._next_seq(),
        ))


def replay_stack_records(
    stack,
    source: str,
    n_frames: int,
    manager=None,
) -> Iterator[tuple]:
    """Deterministic wire-row stream of one finished stack run."""
    emitted: List[tuple] = []
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
