"""Span exporters: Chrome ``trace_event`` JSON and compact JSONL.

The Chrome format loads directly in ``about:tracing`` / Perfetto: spans
become complete events (``ph: "X"``) on one row per category, grouped
into one process per trace (chain instance), with instants (publication
marks, degradation transitions) as ``ph: "i"``.  Timestamps are
microseconds as the format requires; the original integer nanoseconds
survive in ``args``.

The JSONL format is the lossless dump: a header line carrying the span
schema identifier (``repro-spans/1``) and the span count, then one span
per line in recording order, every field of the span kept.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List

from repro.schema import encode_json
from repro.tracing.spans import Span, SpanRecorder

#: Schema identifier written as the first line of every JSONL export.
SPANS_SCHEMA = "repro-spans/1"


def chrome_trace(recorder: SpanRecorder) -> Dict[str, Any]:
    """The ``trace_event`` JSON document for *recorder*'s spans."""
    events: List[Dict[str, Any]] = []
    seen_traces = set()
    for span in recorder.spans:
        if span.trace_id not in seen_traces:
            seen_traces.add(span.trace_id)
            events.append({
                "ph": "M",
                "name": "process_name",
                "pid": span.trace_id,
                "args": {"name": f"trace {span.trace_id}"},
            })
        args = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.links:
            args["links"] = list(span.links)
        args["start_ns"] = span.start
        end = span.start if span.end is None else span.end
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": span.category,
            "pid": span.trace_id,
            "tid": span.category,
            "ts": span.start / 1000.0,
            "args": args,
        }
        if end > span.start:
            event["ph"] = "X"
            event["dur"] = (end - span.start) / 1000.0
            args["dur_ns"] = end - span.start
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(recorder: SpanRecorder, path: str) -> int:
    """Write the Chrome trace of *recorder* to *path*; returns #events."""
    document = chrome_trace(recorder)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(encode_json(document) + "\n")
    return len(document["traceEvents"])


# ----------------------------------------------------------------------
# JSONL (lossless dump)
# ----------------------------------------------------------------------
def span_to_dict(span: Span) -> Dict[str, Any]:
    """The compact JSONL record of one span."""
    record: Dict[str, Any] = {
        "name": span.name,
        "cat": span.category,
        "trace": span.trace_id,
        "id": span.span_id,
        "start": span.start,
        "end": span.end,
    }
    if span.parent_id is not None:
        record["parent"] = span.parent_id
    if span.links:
        record["links"] = list(span.links)
    if span.attrs:
        record["attrs"] = span.attrs
    return record


def jsonl_header(recorder: SpanRecorder) -> str:
    """The schema header line opening a JSONL export."""
    return encode_json({"schema": SPANS_SCHEMA, "spans": len(recorder.spans)})


def to_jsonl(recorder: SpanRecorder) -> Iterator[str]:
    """Header line, then one JSON line per span in recording order."""
    yield jsonl_header(recorder)
    for span in recorder.spans:
        yield encode_json(span_to_dict(span))


def write_jsonl(recorder: SpanRecorder, path: str) -> int:
    """Write the JSONL export to *path*; returns the span count."""
    count = -1  # the header line is not a span
    with open(path, "w", encoding="utf-8") as handle:
        for line in to_jsonl(recorder):
            handle.write(line)
            handle.write("\n")
            count += 1
    return count

