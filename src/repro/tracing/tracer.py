"""Event tracer buffering simulator trace points.

Events are grouped by name for cheap retrieval.  An optional name
prefix filter keeps high-rate runs lean (like enabling only selected
LTTng tracepoints), and a capacity bound emulates finite trace buffers
(oldest events are discarded first, counted per name).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class TraceEvent:
    """One recorded trace point (global simulation time)."""

    name: str
    timestamp: int
    fields: dict


class Tracer:
    """Buffers trace points emitted through ``Simulator.emit_trace``.

    Parameters
    ----------
    sim:
        Simulator to attach to.
    prefixes:
        Only record events whose name starts with one of these.  None
        records everything; an empty sequence records nothing, and the
        tracer then registers no hook, so ``sim.tracing_active`` stays
        false and emitters skip building their fields.
    capacity_per_name:
        Ring-buffer bound per event name (None = unbounded).
    """

    def __init__(
        self,
        sim: Simulator,
        prefixes: Optional[Sequence[str]] = None,
        capacity_per_name: Optional[int] = None,
    ):
        self.sim = sim
        self.prefixes = None if prefixes is None else tuple(prefixes)
        self.capacity = capacity_per_name
        self._by_name: Dict[str, Deque[TraceEvent]] = {}
        self.recorded = 0
        self.discarded = 0
        self.enabled = True
        if self.prefixes != ():
            sim.add_trace_hook(self._on_event)

    def _on_event(self, name: str, timestamp: int, fields: dict) -> None:
        if not self.enabled:
            return
        if self.prefixes is not None and not name.startswith(self.prefixes):
            return
        bucket = self._by_name.get(name)
        if bucket is None:
            bucket = deque(maxlen=self.capacity)
            self._by_name[name] = bucket
        if self.capacity is not None and len(bucket) == self.capacity:
            self.discarded += 1
        bucket.append(TraceEvent(name, timestamp, fields))
        self.recorded += 1

    def events(self, name: str) -> List[TraceEvent]:
        """All recorded events of one name, in time order."""
        return list(self._by_name.get(name, ()))

    def names(self) -> List[str]:
        """Event names seen so far."""
        return sorted(self._by_name)

    def count(self, name: str) -> int:
        """Number of buffered events of one name."""
        return len(self._by_name.get(name, ()))

    def clear(self) -> None:
        """Drop all buffered events (statistics keep counting)."""
        self._by_name.clear()

    def select(self, name: str, **field_filters) -> List[TraceEvent]:
        """Events of *name* whose fields match all given key=value pairs."""
        out = []
        for event in self._by_name.get(name, ()):
            if all(event.fields.get(k) == v for k, v in field_filters.items()):
                out.append(event)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Tracer {self.recorded} events, {len(self._by_name)} names>"
