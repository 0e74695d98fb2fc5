"""Critical-path extraction and latency attribution over recorded spans.

Given a finished run with span tracing enabled (``StackConfig(spans=True)``),
this module answers *where an end-to-end latency came from*: for each
chain instance (frame) it walks the causal span graph backwards from the
chain's end event to its start publication and decomposes the elapsed
time into contiguous edges -- local compute, DDS transport, executor
queueing, exception handling -- whose durations **sum exactly** to the
recorded end-to-end latency (a telescoping construction over the path
spans' start boundaries, verified per instance).

Aggregation folds per-edge durations into
:class:`~repro.analysis.histogram.StreamingHistogram` sketches (p50 /
p95 / p99 per edge and per category) and reports budget burn against the
chain's deadline split: each segment's observed span against its
``d_mon`` (Eqs. (3)-(5): violations must be *detected* within ``d_mon``
so handling completes within ``d = d_mon + d_ex``) and the whole
instance against ``budget_e2e`` (Eqs. (6)-(7): segment budgets compose
to the end-to-end deadline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.events import EventKind, EventPoint
from repro.analysis.histogram import StreamingHistogram
from repro.tracing.spans import Span, SpanRecorder


def _guid_matches(guid: str, point: EventPoint) -> bool:
    """Does a DDS entity guid belong to *point*'s ECU + process?

    Guids are ``{ecu}/{process}#{id}`` plus a ``/wN`` / ``/rN`` entity
    suffix; an empty process on the event point matches any process.
    """
    if not guid.startswith(f"{point.ecu}/"):
        return False
    if point.process and f"/{point.process}#" not in guid:
        return False
    return True


# ----------------------------------------------------------------------
# Validation (shared with the property-based test suite)
# ----------------------------------------------------------------------
def validate_spans(recorder: SpanRecorder) -> List[str]:
    """Structural well-formedness violations of a recorded span set.

    Checks, per span: closed (``end`` is not None) with ``end >= start``;
    the parent exists, belongs to the same trace, and does not start
    after its child; every link target exists.  Per trace: exactly one
    root.  Returns human-readable violation strings (empty == valid).
    """
    problems: List[str] = []
    by_id = {span.span_id: span for span in recorder.spans}
    roots_per_trace: Dict[int, int] = {}
    for span in recorder.spans:
        label = f"span {span.span_id} ({span.name})"
        if span.end is None:
            problems.append(f"{label}: still open")
        elif span.end < span.start:
            problems.append(f"{label}: end {span.end} < start {span.start}")
        if span.parent_id is None:
            roots_per_trace[span.trace_id] = (
                roots_per_trace.get(span.trace_id, 0) + 1
            )
        else:
            parent = by_id.get(span.parent_id)
            if parent is None:
                problems.append(f"{label}: dangling parent {span.parent_id}")
            else:
                if parent.trace_id != span.trace_id:
                    problems.append(
                        f"{label}: parent {parent.span_id} is in "
                        f"trace {parent.trace_id}, not {span.trace_id}"
                    )
                if parent.start > span.start:
                    problems.append(
                        f"{label}: starts at {span.start} before its "
                        f"parent's start {parent.start}"
                    )
        for link in span.links:
            if link not in by_id:
                problems.append(f"{label}: dangling link {link}")
    for trace_id, n_roots in roots_per_trace.items():
        if n_roots != 1:
            problems.append(f"trace {trace_id}: {n_roots} roots")
    return problems


# ----------------------------------------------------------------------
# Per-instance critical path
# ----------------------------------------------------------------------
@dataclass
class Edge:
    """One contiguous slice of a chain instance's end-to-end time."""

    name: str
    category: str
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The attributed latency of one chain instance (frame)."""

    chain: str
    frame: int
    #: Path spans in causal (forward) order, start publication first.
    spans: List[Span]
    edges: List[Edge]
    start_ts: int
    end_ts: int

    @property
    def e2e_ns(self) -> int:
        """End-to-end latency: chain end event minus start publication."""
        return self.end_ts - self.start_ts

    def by_category(self) -> Dict[str, int]:
        """Total ns per edge category (sums to :attr:`e2e_ns`)."""
        totals: Dict[str, int] = {}
        for edge in self.edges:
            totals[edge.category] = totals.get(edge.category, 0) + edge.duration
        return totals

    def verify(self) -> None:
        """Assert the exact-attribution invariant of this instance."""
        total = sum(edge.duration for edge in self.edges)
        if total != self.e2e_ns:
            raise AssertionError(
                f"{self.chain} frame {self.frame}: edges sum to {total} ns "
                f"but e2e is {self.e2e_ns} ns"
            )
        for edge in self.edges:
            if edge.duration < 0:
                raise AssertionError(
                    f"{self.chain} frame {self.frame}: negative edge "
                    f"{edge.name} ({edge.duration} ns)"
                )


def build_edges(path_spans: List[Span]) -> List[Edge]:
    """Decompose a causal span path into telescoping edges.

    For every span but the last, the edge runs from the span's start to
    the *next* span's start; when the next span starts after this one
    ended, the remainder is a separate ``queue`` edge (executor backlog,
    monitor-thread wakeup latency, a fusion input waiting for its
    partner).  The last span contributes its full extent.  Durations
    therefore sum exactly to ``last.end - first.start`` by construction.
    """
    edges: List[Edge] = []
    for span, nxt in zip(path_spans, path_spans[1:]):
        boundary = nxt.start
        if boundary <= (span.end if span.end is not None else boundary):
            edges.append(Edge(span.name, span.category, span.start, boundary))
        else:
            edges.append(Edge(span.name, span.category, span.start, span.end))
            edges.append(Edge(f"queue:{nxt.name}", "queue", span.end, boundary))
    last = path_spans[-1]
    edges.append(Edge(last.name, last.category, last.start, last.end))
    return edges


class CriticalPathAnalyzer:
    """Extracts per-instance critical paths from one recorded run.

    Parameters
    ----------
    recorder:
        The run's :class:`~repro.tracing.spans.SpanRecorder`
        (``stack.spans`` after a ``StackConfig(spans=True)`` run).
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._by_id: Dict[int, Span] = {
            span.span_id: span for span in recorder.spans
        }
        #: (topic, frame) -> publication instants, in recording order.
        self._pubs: Dict[Tuple[str, int], List[Span]] = {}
        #: (topic, frame) -> transport spans, in recording order.
        self._transports: Dict[Tuple[str, int], List[Span]] = {}
        for span in recorder.spans:
            frame = span.attrs.get("frame")
            topic = span.attrs.get("topic")
            if frame is None or topic is None:
                continue
            if span.name == "dds.publish":
                self._pubs.setdefault((topic, frame), []).append(span)
            elif span.name == "dds.transport":
                self._transports.setdefault((topic, frame), []).append(span)

    # ------------------------------------------------------------------
    def _anchor(self, point: EventPoint, frame: int) -> Optional[Span]:
        """The span realizing *point* for *frame*.

        The earliest match by (start, span_id) wins -- e.g. the original
        publication over a later recovery republication -- and the
        choice is invariant under recording-order permutations.
        """
        if point.kind is EventKind.PUBLICATION:
            candidates = self._pubs.get((point.topic, frame), [])
            key = "writer"
        else:
            candidates = self._transports.get((point.topic, frame), [])
            key = "reader"
        best: Optional[Span] = None
        for span in candidates:
            if _guid_matches(span.attrs.get(key, ""), point):
                if best is None or (span.start, span.span_id) < (
                    best.start, best.span_id
                ):
                    best = span
        return best

    def _backward_path(self, end: Span, target_id: int) -> Optional[List[Span]]:
        """Causal predecessors from *end* back to *target_id* (DFS).

        Predecessor edges are the parent plus any links (causal joins);
        the returned list is in forward order, target first.
        """
        stack: List[Tuple[int, List[int]]] = [(end.span_id, [end.span_id])]
        visited = {end.span_id}
        while stack:
            span_id, trail = stack.pop()
            if span_id == target_id:
                return [self._by_id[sid] for sid in reversed(trail)]
            span = self._by_id.get(span_id)
            if span is None:
                continue
            preds = list(span.links)
            if span.parent_id is not None:
                preds.append(span.parent_id)
            for pred in preds:
                if pred not in visited:
                    visited.add(pred)
                    stack.append((pred, trail + [pred]))
        return None

    # ------------------------------------------------------------------
    def instance_path(self, chain, frame: int) -> Optional[CriticalPath]:
        """The critical path of one chain instance, or None if the
        instance never completed (dropped frame, chain-terminal miss)."""
        start = self._anchor(chain.segments[0].start, frame)
        end = self._anchor(chain.segments[-1].end, frame)
        if start is None or end is None:
            return None
        path_spans = self._backward_path(end, start.span_id)
        if path_spans is None:
            return None
        result = CriticalPath(
            chain=chain.name,
            frame=frame,
            spans=path_spans,
            edges=build_edges(path_spans),
            start_ts=start.start,
            end_ts=end.end if end.end is not None else end.start,
        )
        result.verify()
        return result

    def analyze(self, chain, frames: Iterable[int]) -> List[CriticalPath]:
        """Critical paths of *chain* for every completed frame."""
        paths = []
        for frame in frames:
            path = self.instance_path(chain, frame)
            if path is not None:
                paths.append(path)
        return paths

    # ------------------------------------------------------------------
    def segment_spans(
        self, chain, path: CriticalPath
    ) -> List[Tuple[str, Optional[int]]]:
        """(segment name, observed span ns) along one instance's path.

        A segment's observed span is its end anchor instant minus its
        start anchor instant (publication span start / transport span
        end, per event kind); None when an anchor is missing from the
        trace (e.g. the data object was substituted during recovery).
        """
        out: List[Tuple[str, Optional[int]]] = []
        for segment in chain.segments:
            start = self._anchor(segment.start, path.frame)
            end = self._anchor(segment.end, path.frame)
            if start is None or end is None:
                out.append((segment.name, None))
                continue
            start_ts = (
                start.start
                if segment.start.kind is EventKind.PUBLICATION
                else (start.end if start.end is not None else start.start)
            )
            end_ts = (
                end.start
                if segment.end.kind is EventKind.PUBLICATION
                else (end.end if end.end is not None else end.start)
            )
            out.append((segment.name, end_ts - start_ts))
        return out


# ----------------------------------------------------------------------
# Aggregation and reporting
# ----------------------------------------------------------------------
@dataclass
class ChainAttribution:
    """Aggregated latency attribution of one chain across frames."""

    chain: str
    n_instances: int = 0
    #: Per-edge-name duration sketches (only non-zero durations folded).
    edge_histograms: Dict[str, StreamingHistogram] = field(default_factory=dict)
    #: Per-category duration sketches (one sample per instance).
    category_histograms: Dict[str, StreamingHistogram] = field(default_factory=dict)
    #: End-to-end latency sketch (one sample per instance).
    e2e_histogram: StreamingHistogram = field(default_factory=StreamingHistogram)
    #: segment name -> (observed-span sketch, d_mon budget or None).
    segment_burn: Dict[str, Tuple[StreamingHistogram, Optional[int]]] = field(
        default_factory=dict
    )
    budget_e2e: Optional[int] = None

    def category_share(self) -> Dict[str, float]:
        """Fraction of total attributed time per category."""
        totals = {
            name: hist.total for name, hist in self.category_histograms.items()
        }
        grand = sum(totals.values())
        if grand <= 0:
            return {name: 0.0 for name in totals}
        return {name: value / grand for name, value in totals.items()}


def attribute_chain(
    analyzer: CriticalPathAnalyzer,
    chain,
    frames: Iterable[int],
) -> ChainAttribution:
    """Fold every completed instance of *chain* into an attribution."""
    result = ChainAttribution(chain=chain.name, budget_e2e=chain.budget_e2e)
    for segment in chain.segments:
        result.segment_burn[segment.name] = (StreamingHistogram(), segment.d_mon)
    for path in analyzer.analyze(chain, frames):
        result.n_instances += 1
        result.e2e_histogram.add(path.e2e_ns)
        for edge in path.edges:
            if edge.duration > 0:
                result.edge_histograms.setdefault(
                    edge.name, StreamingHistogram()
                ).add(edge.duration)
        for category, total in path.by_category().items():
            result.category_histograms.setdefault(
                category, StreamingHistogram()
            ).add(total)
        for name, observed in analyzer.segment_spans(chain, path):
            if observed is not None:
                result.segment_burn[name][0].add(observed)
    return result


def _pcts(hist: StreamingHistogram) -> str:
    def fmt(q: float) -> str:
        value = hist.quantile(q)
        return "-" if value is None else f"{value / 1e6:8.3f}"

    return f"p50={fmt(0.50)}  p95={fmt(0.95)}  p99={fmt(0.99)} ms"


def render_attribution(attribution: ChainAttribution) -> str:
    """Human-readable attribution report of one chain."""
    lines = [
        f"chain {attribution.chain}: {attribution.n_instances} instances",
        f"  e2e        {_pcts(attribution.e2e_histogram)}",
    ]
    shares = attribution.category_share()
    for category in sorted(
        attribution.category_histograms,
        key=lambda name: -attribution.category_histograms[name].total,
    ):
        hist = attribution.category_histograms[category]
        lines.append(
            f"  {category:<10} {_pcts(hist)}  share={shares[category]:5.1%}"
        )
    lines.append("  budget burn (observed span vs d_mon):")
    for name, (hist, budget) in attribution.segment_burn.items():
        p95 = hist.quantile(0.95)
        if p95 is None:
            lines.append(f"    {name:<12} no completed anchors")
        elif budget is None:
            lines.append(f"    {name:<12} p95={p95 / 1e6:.3f} ms (no budget)")
        else:
            lines.append(
                f"    {name:<12} p95={p95 / 1e6:.3f} ms "
                f"of {budget / 1e6:.3f} ms ({p95 / budget:5.1%})"
            )
    if attribution.budget_e2e:
        p95 = attribution.e2e_histogram.quantile(0.95)
        if p95 is not None:
            lines.append(
                f"  e2e p95 burn: {p95 / 1e6:.3f} ms of "
                f"{attribution.budget_e2e / 1e6:.3f} ms "
                f"({p95 / attribution.budget_e2e:5.1%})"
            )
    lines.append("  slowest edges (p95):")
    ranked = sorted(
        attribution.edge_histograms.items(),
        key=lambda item: -(item[1].quantile(0.95) or 0.0),
    )[:6]
    for name, hist in ranked:
        lines.append(f"    {name:<32} {_pcts(hist)}  n={hist.count}")
    return "\n".join(lines)
