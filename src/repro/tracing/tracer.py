"""Event tracer buffering simulator trace points.

Events are grouped by name for cheap retrieval.  An optional name
prefix filter keeps high-rate runs lean (like enabling only selected
LTTng tracepoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

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
    """

    def __init__(
        self,
        sim: Simulator,
        prefixes: Optional[Sequence[str]] = None,
    ):
        self.sim = sim
        self.prefixes = None if prefixes is None else tuple(prefixes)
        self._by_name: Dict[str, List[TraceEvent]] = {}
        self.recorded = 0
        if self.prefixes != ():
            sim.add_trace_hook(self._on_event)

    def _on_event(self, name: str, timestamp: int, fields: dict) -> None:
        if self.prefixes is not None and not name.startswith(self.prefixes):
            return
        bucket = self._by_name.get(name)
        if bucket is None:
            bucket = self._by_name[name] = []
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
