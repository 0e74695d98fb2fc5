"""Graceful degradation: escalation policies and the monitor watchdog.

The paper leaves the *reaction* to temporal exceptions open ("handled by
the application itself or by a system-level entity").  This module is
that entity, closing the loop between detection and response:

- a :class:`GracefulDegradationManager` wires the
  :class:`~repro.core.diagnostics.HealthSupervisor` and every
  :class:`~repro.core.chain_runtime.ChainRuntime` into an escalation
  ladder -- NORMAL -> DEGRADED (remote handlers swapped to retry with
  last-good data, restamped to the missed activation) -> SAFE (handlers
  restored so nothing is masked, and a safe-state callback fires once);
  a sustained clean streak de-escalates DEGRADED back to NORMAL;
- a :class:`MonitorWatchdog` guards the remote monitors themselves: the
  synchronization-based monitor only arms its timeout after the *first*
  sample arrives, so a sensor silent from boot is never detected.  The
  watchdog periodically re-arms any unarmed monitor (cold-start or after
  an external stop), turning that blind spot into periodic timeouts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.chain_runtime import Outcome
from repro.core.diagnostics import Health, HealthPolicy, HealthSupervisor
from repro.core.exceptions import ExceptionContext, RecoverAlways
from repro.perception.pointcloud import PointCloud
from repro.sim.kernel import msec


_OUTCOME_OF = attrgetter("outcome")

#: Frames the manager lags behind real time when feeding the sliding
#: windows (later segments may still report for recent activations).
ADVANCE_LAG_FRAMES = 3
#: Cold-start deadline the watchdog gives a never-seen monitor.
WATCHDOG_GRACE_NS = msec(2)


class DegradationMode(enum.Enum):
    """System-level operating mode."""

    NORMAL = "normal"
    DEGRADED = "degraded"
    SAFE = "safe"


@dataclass
class EscalationPolicy:
    """Thresholds of the escalation ladder.

    Counts are cumulative chain-level (m,k) violations across all
    chains since the last return to NORMAL; ``recover_after_clean`` is
    the number of consecutive clean chain activations (summed over
    chains) required to de-escalate.
    """

    degrade_after_violations: int = 1
    safe_after_violations: int = 12
    #: Consecutive chain activations served from stale last-good data
    #: while DEGRADED before escalating anyway: recovery masks misses,
    #: and data *this* stale is no longer safe to act on.
    safe_after_consecutive_recoveries: int = 20
    recover_after_clean: int = 40
    health: HealthPolicy = field(default_factory=HealthPolicy)

    def __post_init__(self) -> None:
        if self.degrade_after_violations < 1:
            raise ValueError("degrade_after_violations must be >= 1")
        if self.safe_after_violations < self.degrade_after_violations:
            raise ValueError(
                "safe_after_violations must be >= degrade_after_violations"
            )
        if self.safe_after_consecutive_recoveries < 1:
            raise ValueError(
                "safe_after_consecutive_recoveries must be >= 1"
            )
        if self.recover_after_clean < 1:
            raise ValueError("recover_after_clean must be >= 1")


def _stale_retry_handler() -> RecoverAlways:
    """Degraded-mode remote handler: re-issue last-good data.

    The substitute is restamped to the *missed* activation so downstream
    joins (fusion pairs by frame index) treat it as the current frame --
    stale content, live chain.  Non-cloud payloads propagate.
    """

    def factory(context: ExceptionContext):
        data = context.last_good_data
        if not isinstance(data, PointCloud):
            return None
        return PointCloud(
            points=data.points,
            frame_index=context.exception.activation,
            stamp=data.stamp,
            frame_id="stale_retry",
        )

    return RecoverAlways(factory)


class MonitorWatchdog:
    """Re-arms remote monitors whose timeout timer is not pending.

    Runs a periodic check on the simulation clock.  An unarmed monitor
    that has never seen a sample (``awaiting is None``) gets a cold-start
    deadline ``WATCHDOG_GRACE_NS`` from now for the current frame; one
    that was stopped mid-stream is re-armed one period past its last
    deadline.
    Checks stop at ``until_ns`` so the end-of-run disarm is respected.
    """

    def __init__(self, stack):
        self.stack = stack
        self.sim = stack.sim
        self.period = stack.config.period
        #: (sim_time, segment, activation) for every re-arm performed.
        self.rearms: List[Tuple[int, str, int]] = []
        self._until = 0

    def start(self, until_ns: int) -> None:
        """Begin periodic checks (every period, phase period/2)."""
        self._until = until_ns
        first = self.period // 2
        if first < until_ns:
            self.sim.schedule_at(first, self._tick, label="watchdog:tick")

    def _tick(self) -> None:
        self.kick()
        nxt = self.sim.now + self.period
        if nxt < self._until:
            self.sim.schedule_at(nxt, self._tick, label="watchdog:tick")

    def kick(self) -> None:
        """Check every remote monitor now; re-arm any unarmed one."""
        if self._until and self.sim.now >= self._until:
            return
        for name, monitor in self.stack.remote_monitors.items():
            if monitor.armed:
                continue
            ecu_now = monitor.ecu.now()
            if monitor.awaiting is None:
                activation = self.sim.now // self.period
                deadline = ecu_now + WATCHDOG_GRACE_NS
            else:
                activation = monitor.awaiting
                base = (monitor.deadline_local
                        if monitor.deadline_local is not None else ecu_now)
                deadline = max(base + self.period, ecu_now + WATCHDOG_GRACE_NS)
            monitor.arm(activation, deadline)
            self.rearms.append((self.sim.now, name, activation))


class GracefulDegradationManager:
    """Escalation ladder over chain violations and segment health."""

    def __init__(
        self,
        stack,
        policy: Optional[EscalationPolicy] = None,
        on_safe_state: Optional[Callable[[int, str], None]] = None,
        watchdog: bool = True,
    ):
        self.stack = stack
        self.policy = policy or EscalationPolicy()
        self.on_safe_state = on_safe_state
        self.mode = DegradationMode.NORMAL
        #: (sim_time, old_mode, new_mode, reason) for every transition.
        self.transitions: List[Tuple[int, DegradationMode, DegradationMode, str]] = []
        self.violation_count = 0
        self.clean_streak = 0
        self.safe_state_entries = 0
        self._recovered_ns: set = set()
        self.supervisor = HealthSupervisor(
            self.policy.health, on_state_change=self._on_health_change
        )
        for source in list(stack.local_runtimes.values()) + list(
            stack.remote_monitors.values()
        ):
            self.supervisor.attach(source)
        for name, runtime in stack.chain_runtimes.items():
            runtime.on_violation = self._make_on_violation(name)
            runtime.on_activation = self._make_on_activation(name)
        self._original_handlers: Dict[str, object] = {}
        self.watchdog = MonitorWatchdog(stack) if watchdog else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, n_frames: int) -> None:
        """Schedule the periodic supervision tick (call before run)."""
        sim = self.stack.sim
        period = self.stack.config.period
        until = max(0, (n_frames - 3) * period)
        if self.watchdog is not None:
            self.watchdog.start(until)

        def tick():
            frame = sim.now // period - ADVANCE_LAG_FRAMES
            if frame >= 0:
                for runtime in self.stack.chain_runtimes.values():
                    runtime.advance_window(frame)
            nxt = sim.now + period
            if nxt < until:
                sim.schedule_at(nxt, tick, label="degradation:tick")

        if period < until:
            sim.schedule_at(period, tick, label="degradation:tick")

    def reset(self) -> None:
        """Manual return to NORMAL (e.g. after servicing a SAFE stop)."""
        self._restore_handlers()
        self._enter(DegradationMode.NORMAL, "manual reset")
        self.violation_count = 0
        self.clean_streak = 0

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _make_on_violation(self, chain_name: str):
        def on_violation(n: int, misses_in_window: int) -> None:
            self.violation_count += 1
            self.clean_streak = 0
            if (self.mode is DegradationMode.NORMAL
                    and self.violation_count
                    >= self.policy.degrade_after_violations):
                self._enter_degraded(
                    f"{chain_name} violated (m,k) at n={n} "
                    f"({misses_in_window} misses in window)"
                )
            elif (self.mode is DegradationMode.DEGRADED
                    and self.violation_count
                    >= self.policy.safe_after_violations):
                self._enter_safe(
                    f"{self.violation_count} cumulative violations "
                    f"(last: {chain_name} n={n})"
                )

        return on_violation

    def _make_on_activation(self, chain_name: str):
        def on_activation(n: int, violated: bool) -> None:
            if violated:
                self.clean_streak = 0
                return
            records = self.stack.chain_runtimes[chain_name].records.get(n, {})
            if Outcome.RECOVERED in map(_OUTCOME_OF, records.values()):
                # Served, but from stale substitutes: neither clean nor
                # violated.  Too many of these in a row is its own
                # escalation trigger -- the masked data is aging.
                self._recovered_ns.add(n)
                if self.mode is DegradationMode.DEGRADED:
                    streak = 0
                    i = n
                    while i in self._recovered_ns:
                        streak += 1
                        i -= 1
                    if streak >= self.policy.safe_after_consecutive_recoveries:
                        self._enter_safe(
                            f"{streak} consecutive activations served "
                            f"from stale data (last: {chain_name} n={n})"
                        )
                return
            self.clean_streak += 1
            if (self.mode is DegradationMode.DEGRADED
                    and self.clean_streak >= self.policy.recover_after_clean):
                self._restore_handlers()
                self._enter(
                    DegradationMode.NORMAL,
                    f"{self.clean_streak} consecutive clean activations",
                )
                self.violation_count = 0

        return on_activation

    def _on_health_change(self, segment: str, old: Health, new: Health) -> None:
        if old is Health.FAILED and new is not Health.FAILED:
            # The segment came back: make sure its monitor is armed again.
            if self.watchdog is not None:
                self.watchdog.kick()
        if new is Health.FAILED and self.mode is DegradationMode.NORMAL:
            self._enter_degraded(f"segment {segment} FAILED")

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _enter(self, mode: DegradationMode, reason: str) -> None:
        if mode is self.mode:
            return
        self.transitions.append((self.stack.sim.now, self.mode, mode, reason))
        self.stack.sim.emit_trace(
            "degradation.transition",
            old=self.mode.value, new=mode.value, reason=reason,
        )
        spans = self.stack.sim.spans
        if spans is not None:
            spans.instant(
                "degradation.transition",
                "mode",
                old=self.mode.value, new=mode.value, reason=reason,
            )
        self.mode = mode

    def _enter_degraded(self, reason: str) -> None:
        # Retry with last-good data: remote segments get a recovery
        # handler so single misses stop propagating down the chain.
        for name, monitor in self.stack.remote_monitors.items():
            if name not in self._original_handlers:
                self._original_handlers[name] = monitor.handler
            monitor.handler = _stale_retry_handler()
        self.clean_streak = 0
        self._enter(DegradationMode.DEGRADED, reason)

    def _enter_safe(self, reason: str) -> None:
        # Stop masking: restore the application's own handlers and tell
        # the vehicle to reach a safe state.  SAFE is terminal until an
        # explicit reset.
        if self.mode is DegradationMode.SAFE:
            return
        self._restore_handlers()
        self._enter(DegradationMode.SAFE, reason)
        self.safe_state_entries += 1
        if self.on_safe_state is not None:
            self.on_safe_state(self.stack.sim.now, reason)

    def _restore_handlers(self) -> None:
        for name, handler in self._original_handlers.items():
            self.stack.remote_monitors[name].handler = handler
        self._original_handlers.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<GracefulDegradationManager mode={self.mode.value} "
            f"violations={self.violation_count}>"
        )
