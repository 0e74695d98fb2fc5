"""Event chains: gap-free sequences of segments with performance bounds.

An event chain carries (Sec. III):

- a period ``P`` (from the throughput requirement),
- a per-segment latency bound ``B_seg`` (concurrent segments must each
  keep up with the frame rate),
- an end-to-end budget ``B_e2e`` that must dominate the sum of segment
  deadlines (Eq. 1 / Eq. 3; an assignment is checked against it and
  ``B_seg`` by :func:`repro.budgeting.feasibility.feasibility_violations`),
- a weakly-hard (m,k) constraint on chain executions.

Validation enforces the gap-free property ``e_e^{s_i} = e_st^{s_{i+1}}``
-- the paper's central argument against stitched-together local
monitoring is precisely that naive segmentations leave unmonitored gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

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

