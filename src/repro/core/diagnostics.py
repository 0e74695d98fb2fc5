"""System-level diagnostics over monitor reports (paper Sec. III-B).

Temporal exceptions "are then handled by the application itself or by a
system-level entity to perform further diagnostics or take appropriate
countermeasures".  This module provides that entity: a
:class:`HealthSupervisor` consuming segment outcomes and maintaining a
per-segment health state with hysteresis:

- ``OK``        -- recent miss ratio below the degraded threshold,
- ``DEGRADED``  -- miss ratio above it (exceptions recur),
- ``FAILED``    -- a run of consecutive misses exceeded the failure
  limit (the segment is effectively down -- e.g. a silent sensor),

plus chain-level verdicts and a renderable health report.  State-change
callbacks let applications escalate (degrade the driving function, fall
back to a safe state) exactly where the paper leaves the reaction open.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.core.chain_runtime import Outcome


class Health(enum.Enum):
    """Health state of a monitored segment."""

    OK = "ok"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass
class HealthPolicy:
    """Thresholds governing state transitions.

    ``window`` outcomes are kept per segment; the state degrades when
    the windowed miss ratio exceeds ``degraded_ratio`` and fails after
    ``failed_consecutive`` back-to-back misses.  Recovery to OK needs
    ``recover_clean`` consecutive clean outcomes (hysteresis, so health
    does not flap on isolated events).
    """

    window: int = 20
    degraded_ratio: float = 0.2
    failed_consecutive: int = 3
    recover_clean: int = 10

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not (0 < self.degraded_ratio <= 1):
            raise ValueError("degraded_ratio must be in (0, 1]")
        if self.failed_consecutive < 1:
            raise ValueError("failed_consecutive must be >= 1")
        if self.recover_clean < 1:
            raise ValueError("recover_clean must be >= 1")


@dataclass
class _SegmentHealth:
    state: Health = Health.OK
    outcomes: Deque[bool] = field(default_factory=deque)  # True = miss
    #: Misses among ``outcomes``, kept beside the window as it slides.
    window_misses: int = 0
    consecutive_misses: int = 0
    consecutive_clean: int = 0
    transitions: List = field(default_factory=list)


StateChangeFn = Callable[[str, Health, Health], None]


class _Shim:
    """The reporter :meth:`HealthSupervisor.attach` adds to a runtime."""

    def __init__(self, supervisor: "HealthSupervisor"):
        self.supervisor = supervisor

    def report(self, segment_name, activation, outcome, **_kw):
        self.supervisor.observe(segment_name, outcome)

    def report_exception(self, exception):
        pass


class HealthSupervisor:
    """Aggregates monitor outcomes into segment/system health."""

    def __init__(
        self,
        policy: Optional[HealthPolicy] = None,
        on_state_change: Optional[StateChangeFn] = None,
    ):
        self.policy = policy or HealthPolicy()
        self.on_state_change = on_state_change
        self._segments: Dict[str, _SegmentHealth] = {}

    # ------------------------------------------------------------------
    def observe(self, segment_name: str, outcome: Outcome) -> Health:
        """Feed one outcome; returns the segment's (possibly new) state.

        RECOVERED counts as clean for health purposes (the data path
        stayed alive); MISS and SKIPPED count as misses.
        """
        health = self._segments.get(segment_name)
        if health is None:
            health = self._segments[segment_name] = _SegmentHealth()
        policy = self.policy
        miss = outcome is Outcome.MISS or outcome is Outcome.SKIPPED
        outcomes = health.outcomes
        outcomes.append(miss)
        health.window_misses += miss
        while len(outcomes) > policy.window:
            health.window_misses -= outcomes.popleft()
        if miss:
            health.consecutive_misses += 1
            health.consecutive_clean = 0
        else:
            health.consecutive_misses = 0
            health.consecutive_clean += 1
        old = new = health.state
        if health.consecutive_misses >= policy.failed_consecutive:
            new = Health.FAILED
        elif old is Health.FAILED:
            if health.consecutive_clean >= policy.recover_clean:
                new = Health.OK
        elif health.window_misses / len(outcomes) > policy.degraded_ratio:
            new = Health.DEGRADED
        elif old is Health.DEGRADED:
            if health.consecutive_clean >= policy.recover_clean:
                new = Health.OK
        if new is not old:
            health.state = new
            health.transitions.append((old, new, len(outcomes)))
            if self.on_state_change is not None:
                self.on_state_change(segment_name, old, new)
        return health.state

    def attach(self, runtime) -> None:
        """Mirror a :class:`LocalSegmentRuntime`/monitor into this
        supervisor by appending a reporting shim to its reporters."""
        runtime.reporters.append(_Shim(self))

    # ------------------------------------------------------------------
    def state_of(self, segment_name: str) -> Health:
        """Current health of one segment (OK if never observed)."""
        health = self._segments.get(segment_name)
        return health.state if health else Health.OK

    @property
    def system_health(self) -> Health:
        """Worst health across all observed segments."""
        order = {Health.OK: 0, Health.DEGRADED: 1, Health.FAILED: 2}
        worst = Health.OK
        for health in self._segments.values():
            if order[health.state] > order[worst]:
                worst = health.state
        return worst

    def report(self) -> str:
        """Human-readable health table."""
        lines = [f"system health: {self.system_health.value.upper()}"]
        for name in sorted(self._segments):
            health = self._segments[name]
            ratio = (
                health.window_misses / len(health.outcomes)
                if health.outcomes
                else 0.0
            )
            lines.append(
                f"  {name:16s} {health.state.value:9s} "
                f"miss_ratio={ratio:.2f} "
                f"consecutive={health.consecutive_misses} "
                f"transitions={len(health.transitions)}"
            )
        return "\n".join(lines)
