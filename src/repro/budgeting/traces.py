"""Latency traces recorded from unmonitored runs.

A :class:`SegmentTrace` holds the measured latencies ``l_n`` of one
segment, aligned by activation index n.  The *extended trace*
``l'_n = l_n + d_ex`` (Sec. III-C) adds the worst-case response time of
the exception handling, so that a deadline chosen from the extended
trace leaves room to detect-and-handle within the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


@dataclass
class SegmentTrace:
    """Measured latencies of one segment, aligned by activation."""

    segment_name: str
    latencies: List[int]
    #: Exception-handling WCRT added to every value (``d_ex``).
    d_ex: int = 0

    def __post_init__(self) -> None:
        if any(latency < 0 for latency in self.latencies):
            raise ValueError(f"{self.segment_name}: negative latency in trace")
        if self.d_ex < 0:
            raise ValueError(f"{self.segment_name}: negative d_ex")

    def __len__(self) -> int:
        return len(self.latencies)

    @property
    def extended(self) -> List[int]:
        """The extended trace ``L'`` with ``l' = l + d_ex``."""
        return [latency + self.d_ex for latency in self.latencies]

    def percentile(self, q: float) -> int:
        """The q-th percentile of the raw latencies (q in [0, 100])."""
        if not self.latencies:
            raise ValueError(f"{self.segment_name}: empty trace")
        return int(np.percentile(self.latencies, q))

    @property
    def maximum(self) -> int:
        """Largest observed raw latency."""
        return max(self.latencies)


@dataclass
class ChainTrace:
    """Aligned traces of all segments of one chain."""

    chain_name: str
    segments: Dict[str, SegmentTrace] = field(default_factory=dict)

    def add(self, trace: SegmentTrace) -> None:
        """Register a segment trace (one per segment)."""
        if trace.segment_name in self.segments:
            raise ValueError(f"duplicate trace for {trace.segment_name}")
        self.segments[trace.segment_name] = trace

    def __getitem__(self, segment_name: str) -> SegmentTrace:
        return self.segments[segment_name]

    @property
    def length(self) -> int:
        """Number of aligned activations (the shortest segment trace)."""
        if not self.segments:
            return 0
        return min(len(trace) for trace in self.segments.values())

    def aligned(self) -> "ChainTrace":
        """Return a copy truncated so all segment traces share a length.

        Traces recorded live can differ by a frame or two at the tail
        (downstream segments lag); alignment keeps Eq. (7)'s per-n sums
        meaningful.
        """
        n = self.length
        aligned = ChainTrace(self.chain_name)
        for name, trace in self.segments.items():
            aligned.add(
                SegmentTrace(name, trace.latencies[:n], d_ex=trace.d_ex)
            )
        return aligned

    def extended_matrix(self, order: Sequence[str]) -> List[List[int]]:
        """Extended traces as a list of rows following *order*."""
        missing = [name for name in order if name not in self.segments]
        if missing:
            raise KeyError(f"{self.chain_name}: no trace for {missing}")
        return [self.segments[name].extended for name in order]
