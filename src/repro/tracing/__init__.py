"""LTTng-like tracing and offline latency reconstruction.

The paper instruments the software with LTTng, records traces of an
*unmonitored* run, and extracts segment latencies from them to feed the
budgeting CSP (Sec. III-C: "we record one or multiple traces (without
monitoring) to measure segment latencies").  This package mirrors that:

- :class:`~repro.tracing.tracer.Tracer` subscribes to the simulator's
  trace hooks and buffers events (middleware publish/receive, monitor
  and scheduler events).
- :mod:`~repro.tracing.analysis` reconstructs per-segment latency
  series from the buffered communication events, pairing the n-th start
  with the n-th end event (valid under in-order delivery).
- :mod:`~repro.tracing.spans` adds *causal* span tracing on top: a
  recorder attached as ``sim.spans`` collects parent-linked intervals
  across kernel dispatch, DDS hops, executors and monitors.
- :mod:`~repro.tracing.critical_path` walks the span graph backwards
  per chain instance and attributes the end-to-end latency to edges
  whose durations sum exactly to it.
- :mod:`~repro.tracing.export` writes Chrome ``trace_event`` JSON and
  compact JSONL.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.tracing.tracer": ("TraceEvent", "Tracer"),
    "repro.tracing.analysis": (
        "endpoint_events", "segment_latencies_from_trace",
        "chain_trace_from_tracer",
    ),
    "repro.tracing.spans": ("Span", "SpanRecorder"),
    "repro.tracing.context": ("SpanContext",),
    "repro.tracing.critical_path": (
        "CriticalPath", "CriticalPathAnalyzer", "attribute_chain",
        "build_edges", "render_attribution", "validate_spans",
    ),
    "repro.tracing.export": (
        "chrome_trace", "write_chrome_trace", "write_jsonl",
    ),
})
