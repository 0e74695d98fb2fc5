"""Gateway overload ladder and traffic-class shedding policy.

Mirrors the vehicle-side NORMAL -> DEGRADED -> SAFE degradation idiom
(:mod:`repro.faults.degradation`), driven by the gateway's record
backlog instead of chain violations:

- **NORMAL** -- everything is ingested;
- **DEGRADED** -- dashboard traffic (heartbeats) is shed first;
- **SAFE** -- everything but alert-bearing records is shed: mode
  transitions, temporal exceptions and ``miss`` verdicts always get
  through, because they are exactly what an overloaded fleet operator
  must still see.

Every shed record is counted by class and announced to the vehicle in
the next ack's cumulative ``shed`` list -- rejection is explicit,
never a silent drop.  De-escalation requires the backlog to stay below
the low-water mark for ``dwell`` consecutive steps (hysteresis), one
rung at a time, so the ladder cannot flap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from repro.telemetry.records import KIND, VERDICT

#: Traffic classes, in shed order (first shed under pressure first).
CLASS_DASHBOARD = "dashboard"
CLASS_TELEMETRY = "telemetry"
CLASS_ALERT = "alert"


def classify(row) -> str:
    """Which traffic class a wire row belongs to (shedding unit)."""
    kind = row[KIND]
    if kind == "exception" or kind == "mode" or row[VERDICT] == "miss":
        return CLASS_ALERT
    if kind == "heartbeat":
        return CLASS_DASHBOARD
    return CLASS_TELEMETRY


class GatewayMode(enum.Enum):
    """Gateway-level operating mode (the overload ladder rungs)."""

    NORMAL = "normal"
    DEGRADED = "degraded"
    SAFE = "safe"


#: Classes shed at each rung.
SHED_AT = {
    GatewayMode.NORMAL: frozenset(),
    GatewayMode.DEGRADED: frozenset({CLASS_DASHBOARD}),
    GatewayMode.SAFE: frozenset({CLASS_DASHBOARD, CLASS_TELEMETRY}),
}


@dataclass
class OverloadPolicy:
    """Backlog thresholds (records) and de-escalation hysteresis."""

    degraded_above: int = 512
    safe_above: int = 2048
    #: Backlog below this for ``dwell`` steps de-escalates one rung.
    recover_below: int = 128
    dwell: int = 8

    def __post_init__(self) -> None:
        if self.degraded_above < 1:
            raise ValueError("degraded_above must be >= 1")
        if self.safe_above < self.degraded_above:
            raise ValueError("safe_above must be >= degraded_above")
        if not (0 <= self.recover_below <= self.degraded_above):
            raise ValueError(
                "need 0 <= recover_below <= degraded_above"
            )
        if self.dwell < 1:
            raise ValueError("dwell must be >= 1")


class OverloadLadder:
    """Backlog-driven mode machine with logged transitions."""

    def __init__(self, policy: OverloadPolicy):
        self.policy = policy
        self.mode = GatewayMode.NORMAL
        #: ``SHED_AT[self.mode]``, looked up once per rung change: a
        #: lookup per frame would hash an enum member in Python.
        self.shed_classes = SHED_AT[self.mode]
        #: ``(step, from, to, backlog)`` -- every rung change.
        self.transitions: List[Tuple[int, str, str, int]] = []
        self._calm_since: int = -1

    def sheds(self, traffic_class: str) -> bool:
        return traffic_class in self.shed_classes

    def observe(self, backlog: int, now: int) -> GatewayMode:
        """Fold one step's backlog reading; returns the (new) mode."""
        policy = self.policy
        target = self.mode
        if backlog > policy.safe_above:
            target = GatewayMode.SAFE
        elif backlog > policy.degraded_above:
            if self.mode is not GatewayMode.SAFE:
                target = GatewayMode.DEGRADED
        if target is not self.mode and _rank(target) > _rank(self.mode):
            self._enter(target, backlog, now)
            self._calm_since = -1
            return self.mode
        # De-escalation: one rung after a sustained calm streak.
        if self.mode is not GatewayMode.NORMAL:
            if backlog < policy.recover_below:
                if self._calm_since < 0:
                    self._calm_since = now
                elif now - self._calm_since + 1 >= policy.dwell:
                    down = (
                        GatewayMode.DEGRADED
                        if self.mode is GatewayMode.SAFE
                        else GatewayMode.NORMAL
                    )
                    self._enter(down, backlog, now)
                    self._calm_since = now
            else:
                self._calm_since = -1
        return self.mode

    def _enter(self, mode: GatewayMode, backlog: int, now: int) -> None:
        self.transitions.append(
            (now, self.mode.value, mode.value, backlog)
        )
        self.mode = mode
        self.shed_classes = SHED_AT[mode]

    def to_json(self) -> dict:
        return {
            "mode": self.mode.value,
            "transitions": [list(t) for t in self.transitions],
        }


def _rank(mode: GatewayMode) -> int:
    return {GatewayMode.NORMAL: 0, GatewayMode.DEGRADED: 1,
            GatewayMode.SAFE: 2}[mode]
