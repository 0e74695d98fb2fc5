"""End-to-end chain supervision: outcomes, propagation and (m,k) verdicts.

Segment monitors report per-activation outcomes here.  An activation of
the chain is *violated* iff any of its segments ended in an unrecovered
(propagated) miss -- recovered exceptions do not count, which is exactly
why the propagation mechanism lets the chain-level (m,k) constraint be
reused for segment deadlines (Sec. III-B).

The runtime keeps an online sliding (m,k) window over chain executions
and exposes an ``on_violation`` callback for applications that must
react when the weakly-hard budget is exhausted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.chains import EventChain
from repro.core.exceptions import TemporalException
from repro.core.weakly_hard import MKAutomaton, max_window_misses


class Outcome(enum.Enum):
    """Per-segment, per-activation result."""

    #: End event occurred within the monitored deadline.
    OK = "ok"
    #: Temporal exception raised but the handler recovered.
    RECOVERED = "recovered"
    #: Temporal exception propagated -- an unrecovered miss.
    MISS = "miss"
    #: Activation consumed by an upstream propagated miss (the segment
    #: never executed; an error propagation event stood in for the start).
    SKIPPED = "skipped"


_OUTCOME_VALUES = tuple(outcome._value_ for outcome in Outcome)


@dataclass
class SegmentRecord:
    """One segment's result for one activation."""

    outcome: Outcome
    #: Monitored segment latency (start -> end event or handled
    #: exception, whichever came first); None for SKIPPED.
    latency: Optional[int] = None
    #: Handler-entry delay past the nominal deadline (exceptions only).
    detection_latency: Optional[int] = None


@dataclass
class ActivationOutcome:
    """The chain-level result of one activation."""

    activation: int
    violated: bool
    segments: Dict[str, SegmentRecord] = field(default_factory=dict)


@dataclass
class ChainReport:
    """Aggregate verdict over a finished run."""

    chain_name: str
    activations: List[ActivationOutcome]
    misses: List[bool]
    mk_satisfied: bool
    max_window_misses: int
    ok_count: int
    recovered_count: int
    miss_count: int
    skipped_count: int

    @property
    def total(self) -> int:
        """Number of chain activations observed."""
        return len(self.activations)

    @property
    def miss_ratio(self) -> float:
        """Fraction of violated chain activations."""
        if not self.activations:
            return 0.0
        return sum(self.misses) / len(self.misses)


class ChainRuntime:
    """Collects monitor reports for one event chain."""

    def __init__(
        self,
        chain: EventChain,
        on_violation: Optional[Callable[[int, int], None]] = None,
    ):
        self.chain = chain
        self.window = MKAutomaton(chain.mk)
        #: activation n -> segment name -> record
        self.records: Dict[int, Dict[str, SegmentRecord]] = {}
        self.exceptions: List[TemporalException] = []
        self.on_violation = on_violation
        #: Called as ``on_activation(n, violated)`` for every activation
        #: fed into the sliding window -- clean ones included, so
        #: supervisors can de-escalate after a clean streak.  A
        #: supervisor assigns it.
        self.on_activation: Optional[Callable[[int, bool], None]] = None
        self._finalized_through = -1

    # ------------------------------------------------------------------
    # Reporting (called by monitors)
    # ------------------------------------------------------------------
    def report(
        self,
        segment_name: str,
        activation: int,
        outcome: Outcome,
        latency: Optional[int] = None,
        detection_latency: Optional[int] = None,
    ) -> None:
        """Record one segment outcome for one activation."""
        per_segment = self.records.get(activation)
        if per_segment is None:
            per_segment = self.records[activation] = {}
        per_segment[segment_name] = SegmentRecord(
            outcome, latency, detection_latency
        )

    def report_exception(self, exception: TemporalException) -> None:
        """Archive a raised temporal exception (diagnostics)."""
        self.exceptions.append(exception)

    # ------------------------------------------------------------------
    # Online supervision
    # ------------------------------------------------------------------
    def advance_window(self, through_activation: int) -> None:
        """Feed completed activations up to *through_activation* into the
        sliding (m,k) window, firing ``on_violation`` as needed.

        Call this when earlier activations can no longer change (e.g.
        once the chain's sink has consumed later frames).
        """
        for n in range(self._finalized_through + 1, through_activation + 1):
            violated = self._activation_violated(n)
            if self.window.record(violated) and self.on_violation is not None:
                self.on_violation(n, self.window.misses_in_window)
            if self.on_activation is not None:
                self.on_activation(n, violated)
        self._finalized_through = max(self._finalized_through, through_activation)

    def _activation_violated(self, activation: int) -> bool:
        per_segment = self.records.get(activation)
        if per_segment:
            for record in per_segment.values():
                if record.outcome is Outcome.MISS:
                    return True
        return False

    # ------------------------------------------------------------------
    # Offline verdicts
    # ------------------------------------------------------------------
    def misses(self, through_activation: int) -> List[bool]:
        """Per activation ``0..through_activation``: was the chain
        violated (an unrecovered MISS in any segment)?"""
        violated = self._activation_violated
        return [violated(n) for n in range(through_activation + 1)]

    def finalize(self, through_activation: Optional[int] = None) -> ChainReport:
        """Compute the aggregate report over all observed activations."""
        if through_activation is None:
            through_activation = max(self.records, default=-1)
        misses = self.misses(through_activation)
        records = self.records
        activations: List[ActivationOutcome] = []
        # Keyed by each outcome's value string: hashing a member would
        # run enum's Python ``__hash__`` once per record.
        counts = dict.fromkeys(_OUTCOME_VALUES, 0)
        for n, violated in enumerate(misses):
            per_segment = records.get(n, {})
            for record in per_segment.values():
                counts[record.outcome._value_] += 1
            activations.append(
                ActivationOutcome(activation=n, violated=violated, segments=per_segment)
            )
        worst = max_window_misses(misses, self.chain.mk.k) if misses else 0
        return ChainReport(
            chain_name=self.chain.name,
            activations=activations,
            misses=misses,
            mk_satisfied=worst <= self.chain.mk.m,
            max_window_misses=worst,
            ok_count=counts[Outcome.OK._value_],
            recovered_count=counts[Outcome.RECOVERED._value_],
            miss_count=counts[Outcome.MISS._value_],
            skipped_count=counts[Outcome.SKIPPED._value_],
        )

    def segment_outcomes(self, segment_name: str) -> List[Outcome]:
        """All recorded outcomes of one segment, by activation."""
        out = []
        for n in sorted(self.records):
            record = self.records[n].get(segment_name)
            if record is not None:
                out.append(record.outcome)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ChainRuntime {self.chain.name} activations={len(self.records)}>"
