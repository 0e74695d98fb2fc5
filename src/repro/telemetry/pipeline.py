"""Bounded ingestion with explicit backpressure accounting.

The cardinal rule of the service (and the acceptance criterion of the
subsystem) is **zero silent drops**: every record offered to the
pipeline is either applied to the store or shows up in a drop counter.
The queue therefore counts *everything* -- offered, accepted, dropped
(by reason), drained -- and :meth:`IngestQueue.accounting_ok` states
the conservation law that tests and the CLI assert after every run:

    offered == accepted + dropped
    accepted == drained + depth

Capacity is a hard bound (a real deployment maps this to a fixed shm
ring); when full, the *newest* record is dropped and counted, matching
the ring-buffer policy of
:class:`~repro.core.local_monitor.EventRingBuffer`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.telemetry.records import TelemetryRecord

#: Default queue capacity (records).
DEFAULT_CAPACITY = 65536


class IngestQueue:
    """Bounded FIFO between record producers and the store applier."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: Deque[TelemetryRecord] = deque()
        self.offered = 0
        self.accepted = 0
        self.drained = 0
        #: Drop counters by reason; "queue_full" is the backpressure drop.
        self.dropped_by_reason: Dict[str, int] = {}
        #: Deepest the queue ever got (saturation diagnostics).
        self.high_watermark = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Records currently buffered."""
        return len(self._items)

    @property
    def dropped(self) -> int:
        """Total records dropped, all reasons."""
        return sum(self.dropped_by_reason.values())

    @property
    def saturation(self) -> float:
        """Current fill fraction in [0, 1]."""
        return len(self._items) / self.capacity

    def accounting_ok(self) -> bool:
        """The no-silent-drop conservation law."""
        return (
            self.offered == self.accepted + self.dropped
            and self.accepted == self.drained + len(self._items)
        )

    # ------------------------------------------------------------------
    def offer(self, record: TelemetryRecord) -> bool:
        """Enqueue *record*; False (and counted) when full."""
        self.offered += 1
        if len(self._items) >= self.capacity:
            self.drop("queue_full")
            return False
        self._items.append(record)
        self.accepted += 1
        depth = len(self._items)
        if depth > self.high_watermark:
            self.high_watermark = depth
        return True

    def drop(self, reason: str) -> None:
        """Count one drop under *reason* (offered is counted by offer)."""
        self.dropped_by_reason[reason] = self.dropped_by_reason.get(reason, 0) + 1

    def drain(self, max_records: Optional[int] = None) -> List[TelemetryRecord]:
        """Pop up to *max_records* (all, when None) in FIFO order."""
        items = self._items
        if max_records is None or max_records >= len(items):
            batch = list(items)
            items.clear()
        else:
            batch = [items.popleft() for _ in range(max_records)]
        self.drained += len(batch)
        return batch

    def stats(self) -> dict:
        """Counter snapshot (plain types, JSON-able)."""
        return {
            "capacity": self.capacity,
            "offered": self.offered,
            "accepted": self.accepted,
            "drained": self.drained,
            "depth": self.depth,
            "dropped": self.dropped,
            "dropped_by_reason": dict(sorted(self.dropped_by_reason.items())),
            "high_watermark": self.high_watermark,
        }

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<IngestQueue {len(self._items)}/{self.capacity} "
            f"offered={self.offered} dropped={self.dropped}>"
        )
