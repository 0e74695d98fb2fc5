"""Causal spans and the recorder that collects them.

A :class:`Span` is one interval (or instant) of causally-attributed
work: a lidar driver callback, a DDS transport hop, a monitor exception
handler.  Spans form trees via ``parent_id`` plus optional cross-tree
``links`` (the fusion join, where one chain instance waits for data
whose causal history lives in another trace).

The :class:`SpanRecorder` is attached to a simulator as ``sim.spans``
and follows a guarded duck-typed hook discipline: every instrumented
call site performs exactly one
``if spans is not None`` (or one attribute load feeding it) when tracing
is disabled, and the golden-trace digests are bit-identical either way
-- the recorder draws no randomness, schedules no events and emits no
kernel trace points.

Ambient propagation
-------------------
``recorder.current`` holds the context of the work item being executed
right now.  The kernel captures it into every scheduled event and
restores it at dispatch; the scheduler restores a thread-carried context
(``SimThread.span_ctx``) whenever it resumes a generator thread; the
executor stamps it onto queue entries.  ``begin()`` defaults the parent
to the ambient context, so most call sites never pass one explicitly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.tracing.context import SpanContext

#: Sentinel distinguishing "no parent given, use ambient" from an
#: explicit ``parent=None`` (which forces a new root / trace).
_AMBIENT = object()


class Span:
    """One recorded interval of attributed work.

    ``end`` is ``None`` while the span is open.  ``category`` feeds the
    critical-path decomposition buckets (``compute``, ``network``,
    ``exception``, ...).  ``links`` lists span ids of *additional*
    causal predecessors beyond the parent (causal joins).
    """

    __slots__ = (
        "name",
        "category",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attrs",
        "links",
    )

    def __init__(
        self,
        name: str,
        category: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        start: int,
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.category = category
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[int] = None
        self.attrs = attrs
        self.links: List[int] = []

    @property
    def context(self) -> SpanContext:
        """The propagatable identity of this span."""
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> int:
        """Span duration in ns (0 while still open)."""
        if self.end is None:
            return 0
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = "open" if self.end is None else self.end
        return (
            f"<Span {self.name} [{self.category}] "
            f"t{self.trace_id}/s{self.span_id} parent={self.parent_id} "
            f"{self.start}..{end}>"
        )


class SpanRecorder:
    """Collects spans for one simulator run (``sim.spans``).

    Parameters
    ----------
    sim:
        The owning simulator; span timestamps default to ``sim.now``
        (simulated time, *not* per-ECU drifting clocks, so edge
        durations along a cross-ECU path telescope exactly).
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        #: Ambient context of the work item currently executing.
        self.current: Optional[SpanContext] = None
        self._next_span_id = 0
        self._next_trace_id = 0
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        #: Spans begun but not yet ended (diagnostics).
        self.open_spans = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        category: str,
        parent: Any = _AMBIENT,
        start: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span.  Does *not* change the ambient context.

        ``parent`` defaults to the ambient context; pass ``None``
        explicitly to force a new root (and a new trace).  ``start``
        defaults to the current simulated time but may be overridden to
        anchor the span where its cause happened (e.g. a transport span
        starting at the publication instant).
        """
        if parent is _AMBIENT:
            parent = self.current
        if parent is None:
            self._next_trace_id += 1
            trace_id = self._next_trace_id
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self._next_span_id += 1
        span = Span(
            name,
            category,
            trace_id,
            self._next_span_id,
            parent_id,
            self.sim.now if start is None else start,
            attrs,
        )
        self.spans.append(span)
        self._by_id[span.span_id] = span
        self.open_spans += 1
        return span

    def end(self, span: Span, end: Optional[int] = None) -> Span:
        """Close *span* (idempotent; the first close wins)."""
        if span.end is None:
            span.end = self.sim.now if end is None else end
            self.open_spans -= 1
        return span

    def instant(
        self,
        name: str,
        category: str,
        parent: Any = _AMBIENT,
        ts: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Record a zero-duration span (publication marks, transitions)."""
        when = self.sim.now if ts is None else ts
        span = self.begin(name, category, parent=parent, start=when, **attrs)
        span.end = when
        self.open_spans -= 1
        return span

    # ------------------------------------------------------------------
    # Links (causal joins)
    # ------------------------------------------------------------------
    def link_current(self, ctx: Optional[SpanContext]) -> None:
        """Link *ctx* into the span the ambient context points at."""
        if ctx is None or self.current is None:
            return
        span = self._by_id.get(self.current.span_id)
        if span is not None:
            span.links.append(ctx.span_id)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, span_id: int) -> Optional[Span]:
        """The span with *span_id*, or None."""
        return self._by_id.get(span_id)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SpanRecorder spans={len(self.spans)} open={self.open_spans}>"
