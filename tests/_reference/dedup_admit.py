"""The sweep-every-admit dedup window the uplink ingestor shipped until
the in-order fast path.

``repro.telemetry.uplink.ingest.DedupWatermark.admit`` advances the
watermark directly when a seq lands right above it and sweeps only
when out-of-order seqs wait in ``seen``; this is the admit it replaced,
which put every fresh seq into ``seen`` and swept after each one, with
``advance_to`` and the sweep moved here verbatim.  It is the oracle of
the admit / ``advance_to`` equivalence property in
``tests/test_uplink_ingest.py``.
"""

from __future__ import annotations

from typing import Set


class SweepEveryAdmitWatermark:
    """Exactly-once admission: a cumulative watermark plus the seen
    seqs above it, swept after every admission."""

    __slots__ = ("watermark", "seen", "admitted", "duplicates")

    def __init__(self, watermark: int = -1):
        self.watermark = watermark
        self.seen: Set[int] = set()
        self.admitted = 0
        self.duplicates = 0

    def admit(self, seq: int) -> bool:
        """True exactly once per seq, however often it is offered."""
        if seq <= self.watermark or seq in self.seen:
            self.duplicates += 1
            return False
        self.seen.add(seq)
        self.admitted += 1
        self._sweep()
        return True

    def advance_to(self, seq: int) -> None:
        """Declare every seq at or below *seq* settled."""
        if seq <= self.watermark:
            return
        self.watermark = seq
        self.seen = {s for s in self.seen if s > seq}
        self._sweep()

    def _sweep(self) -> None:
        """Fold contiguous settled seqs into the cumulative watermark."""
        while self.watermark + 1 in self.seen:
            self.watermark += 1
            self.seen.discard(self.watermark)
