"""Event chains: gap-free sequences of segments with performance bounds.

An event chain carries (Sec. III):

- a period ``P`` (from the throughput requirement),
- a per-segment latency bound ``B_seg`` (concurrent segments must each
  keep up with the frame rate),
- an end-to-end budget ``B_e2e`` that must dominate the sum of segment
  deadlines (Eq. 1 / Eq. 3),
- a weakly-hard (m,k) constraint on chain executions.

Validation enforces the gap-free property ``e_e^{s_i} = e_st^{s_{i+1}}``
-- the paper's central argument against stitched-together local
monitoring is precisely that naive segmentations leave unmonitored gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.segments import Segment
from repro.core.weakly_hard import MKConstraint


class ChainValidationError(ValueError):
    """Raised when a chain's structure violates the system model."""


@dataclass
class EventChain:
    """A monitored end-to-end event chain.

    Parameters
    ----------
    name:
        Chain identifier, e.g. ``"front_lidar_chain"``.
    segments:
        Ordered segments; consecutive boundaries must coincide exactly.
    period:
        Activation period P in ns.
    budget_e2e:
        End-to-end latency budget ``B_e2e`` in ns.
    budget_seg:
        Per-segment bound ``B_seg`` in ns (defaults to the period,
        the tightest throughput-preserving choice).
    mk:
        Weakly-hard constraint on chain executions.
    """

    name: str
    segments: List[Segment]
    period: int
    budget_e2e: int
    budget_seg: Optional[int] = None
    mk: MKConstraint = field(default_factory=lambda: MKConstraint(0, 1))

    def __post_init__(self) -> None:
        if not self.segments:
            raise ChainValidationError(f"{self.name}: chain needs >= 1 segment")
        if self.period <= 0:
            raise ChainValidationError(f"{self.name}: period must be positive")
        if self.budget_e2e <= 0:
            raise ChainValidationError(f"{self.name}: budget must be positive")
        if self.budget_seg is None:
            self.budget_seg = self.period
        for earlier, later in zip(self.segments, self.segments[1:]):
            if earlier.end != later.start:
                raise ChainValidationError(
                    f"{self.name}: unmonitored gap between "
                    f"{earlier.name} (ends {earlier.end}) and "
                    f"{later.name} (starts {later.start})"
                )

    def __iter__(self):
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def segment(self, name: str) -> Segment:
        """Look up a segment by name."""
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(f"{self.name} has no segment {name!r}")

    @property
    def deadlines_assigned(self) -> bool:
        """True once every segment has a monitored deadline."""
        return all(seg.d_mon is not None for seg in self.segments)

    def deadline_sum(self) -> int:
        """Sum of total segment deadlines (Eq. 1's right-hand side)."""
        total = 0
        for seg in self.segments:
            if seg.deadline is None:
                raise ChainValidationError(
                    f"{self.name}: segment {seg.name} has no deadline assigned"
                )
            total += seg.deadline
        return total

    def check_budget(self) -> None:
        """Enforce Eq. (1)/(3): ``B_e2e >= sum(d^si)`` and Eq. (4):
        every deadline within ``B_seg``.  Raises on violation."""
        total = self.deadline_sum()
        if total > self.budget_e2e:
            raise ChainValidationError(
                f"{self.name}: deadline sum {total} exceeds budget "
                f"B_e2e={self.budget_e2e}"
            )
        for seg in self.segments:
            assert seg.deadline is not None
            if seg.deadline > self.budget_seg:
                raise ChainValidationError(
                    f"{self.name}: segment {seg.name} deadline {seg.deadline} "
                    f"exceeds B_seg={self.budget_seg}"
                )

    def with_deadlines(self, d_mon_by_segment: Sequence[int]) -> "EventChain":
        """Return a copy of the chain with monitored deadlines assigned."""
        if len(d_mon_by_segment) != len(self.segments):
            raise ValueError(
                f"expected {len(self.segments)} deadlines, "
                f"got {len(d_mon_by_segment)}"
            )
        return EventChain(
            name=self.name,
            segments=[
                seg.with_deadline(d_mon)
                for seg, d_mon in zip(self.segments, d_mon_by_segment)
            ],
            period=self.period,
            budget_e2e=self.budget_e2e,
            budget_seg=self.budget_seg,
            mk=self.mk,
        )

    def __str__(self) -> str:
        path = " -> ".join(seg.name for seg in self.segments)
        return f"EventChain({self.name}: {path}, P={self.period}, {self.mk})"
