"""The fault-injection campaign: scenarios, runner, verdicts.

A :class:`FaultScenario` names a fault hypothesis ("the inter-ECU link
goes dark for a quarter of the run") and builds the injectors realizing
it; the :class:`FaultCampaign` executes each scenario on a freshly built
:class:`~repro.perception.stack.PerceptionStack` with ground-truth
recording, optional graceful degradation, and checks both oracles
afterwards.  Scenario windows scale with the configured frame count, so
the same matrix runs as a CI smoke (``REPRO_FAULT_FRAMES=40``) or a
long soak.

The ``disable_violation_reporting`` switch exists purely to prove the
no-silent-violation oracle discriminates: it silences every non-OK
monitor report (the physical suppression still happens), which must make
completeness fail on any scenario that causes real overruns.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.chain_runtime import Outcome
from repro.faults.base import FaultInjector
from repro.faults.degradation import (
    EscalationPolicy,
    GracefulDegradationManager,
    MonitorWatchdog,
)
from repro.faults.ground_truth import GroundTruthRecorder
from repro.faults.injectors import (
    ClockDrift,
    ClockStep,
    CpuOverload,
    ExecutorStall,
    LatencySpike,
    LinkPartition,
    LossBurst,
    PtpHoldover,
    SilentSensor,
    StuckSensor,
)
from repro.faults.oracles import OracleReport, check_completeness, check_soundness
from repro.perception.stack import PerceptionStack, StackConfig
from repro.sim.kernel import msec, usec

#: Environment knob for campaign length (frames per scenario).
FRAMES_ENV = "REPRO_FAULT_FRAMES"
DEFAULT_FRAMES = 48


def campaign_frames(default: int = DEFAULT_FRAMES) -> int:
    """Frames per scenario, overridable via ``REPRO_FAULT_FRAMES``."""
    try:
        value = int(os.environ.get(FRAMES_ENV, default))
    except ValueError:
        return default
    return max(16, value)


#: Activations excluded from oracle checks at the start/end of the run
#: (startup transients / frames still in flight at shutdown).
WARMUP = 2
TAIL = 4
#: Slack added to the clock-error epsilon of the soundness oracle.
EPSILON_MARGIN = usec(500)


@dataclass
class FaultScenario:
    """One scripted fault hypothesis."""

    name: str
    description: str
    #: Distinct fault classes this scenario exercises (coverage).
    fault_classes: Tuple[str, ...]
    #: Builds the injectors for a run of *n_frames* activations.
    build: Callable[[int], List[FaultInjector]]
    #: StackConfig field overrides for this scenario.
    config_overrides: dict = field(default_factory=dict)
    #: True when detection depends on the monitor watchdog (cold-start
    #: silence) -- such scenarios are skipped when the watchdog is off.
    watchdog_required: bool = False


@dataclass
class CampaignConfig:
    """Execution parameters shared by every scenario."""

    n_frames: int = field(default_factory=campaign_frames)
    seed: int = 11
    degradation: bool = True
    watchdog: bool = True
    policy: EscalationPolicy = field(default_factory=EscalationPolicy)
    disable_violation_reporting: bool = False
    #: Attach a span recorder to every scenario's stack (causal span
    #: tracing; the campaign result is unchanged by it either way).
    spans: bool = False

    def __post_init__(self) -> None:
        if self.n_frames < WARMUP + TAIL + 8:
            raise ValueError(
                f"n_frames={self.n_frames} too small for "
                f"warmup={WARMUP} + tail={TAIL}"
            )


@dataclass
class ScenarioResult:
    """Everything observed while running one scenario."""

    name: str
    fault_classes: Tuple[str, ...]
    n_frames: int
    soundness: OracleReport
    completeness: OracleReport
    #: Monitor-level detections (MISS/RECOVERED) inside the check window.
    detections: int
    #: Physical fault actions the injectors recorded.
    injections: int
    final_mode: Optional[str]
    mode_transitions: List[Tuple[int, str, str, str]]
    safe_state_entries: int
    watchdog_rearms: int
    epsilon_ns: int
    #: Alert counts by rule from replaying the finished run through the
    #: telemetry service (see :mod:`repro.telemetry`).
    alert_counts: Dict[str, int] = field(default_factory=dict)
    #: Telemetry records the replay applied.
    telemetry_records: int = 0

    @property
    def passed(self) -> bool:
        """Both oracles hold."""
        return self.soundness.passed and self.completeness.passed


@dataclass
class CampaignResult:
    """Aggregate outcome of a campaign."""

    scenarios: List[ScenarioResult]

    @property
    def passed(self) -> bool:
        """True when every scenario passed both oracles."""
        return all(s.passed for s in self.scenarios)

    @property
    def fault_classes_covered(self) -> set:
        """Union of fault classes across all scenarios."""
        return {c for s in self.scenarios for c in s.fault_classes}

    def render_report(self) -> str:
        """Human-readable campaign matrix."""
        lines = [
            f"{'scenario':22s} {'classes':28s} {'sound':>7s} "
            f"{'complete':>9s} {'detect':>6s} {'mode':>9s} {'alerts':>7s}"
        ]
        for s in self.scenarios:
            lines.append(
                f"{s.name:22s} {','.join(s.fault_classes):28s} "
                f"{('PASS' if s.soundness.passed else 'FAIL'):>7s} "
                f"{('PASS' if s.completeness.passed else 'FAIL'):>9s} "
                f"{s.detections:>6d} {(s.final_mode or '-'):>9s} "
                f"{sum(s.alert_counts.values()):>7d}"
            )
        covered = sorted(self.fault_classes_covered)
        lines.append(
            f"{len(self.scenarios)} scenarios, "
            f"{len(covered)} fault classes: {', '.join(covered)}"
        )
        lines.append(f"campaign: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def default_scenarios() -> List[FaultScenario]:
    """The standard campaign matrix (>= 6 distinct fault classes)."""

    def s(name, description, classes, build, watchdog_required=False,
          **overrides):
        return FaultScenario(
            name=name, description=description, fault_classes=classes,
            build=build, config_overrides=overrides,
            watchdog_required=watchdog_required,
        )

    return [
        s("loss_burst",
          "inter-ECU link drops every frame for a quarter of the run",
          ("loss_burst",),
          lambda n: [LossBurst("link_12", n // 4, n // 2)]),
        s("latency_spike",
          "front sensor link gains +15 ms, beyond d_mon(s0)",
          ("latency_spike",),
          lambda n: [LatencySpike("link_front", n // 4, n // 2, msec(15))]),
        s("partition",
          "both sensor links partitioned: total sensor blackout",
          ("partition",),
          lambda n: [LinkPartition(["link_front", "link_rear"],
                                   n // 4, n // 2)]),
        s("clock_drift",
          "ECU1 oscillator ramps at 15000 ppm between PTP syncs",
          ("clock_drift",),
          lambda n: [ClockDrift("ecu1", n // 4, n - 8, 15000.0)]),
        s("clock_step",
          "ECU2 clock steps +20 ms (bad sync pulse)",
          ("clock_step",),
          lambda n: [ClockStep("ecu2", n // 3, msec(20))]),
        s("clock_holdover",
          "PTP holdover loss while ECU1 drifts at 6000 ppm uncorrected",
          ("ptp_holdover", "clock_drift"),
          lambda n: [PtpHoldover(n // 6, n - 8),
                     ClockDrift("ecu1", n // 6 + 2, n - 8, 6000.0)]),
        s("cpu_overload",
          "mid-priority hogs saturate ECU2's cores",
          ("cpu_overload",),
          lambda n: [CpuOverload("ecu2", n // 4, n // 4 + max(6, n // 6))]),
        s("executor_stall",
          "runaway callback blocks the classifier executor for 500 ms",
          ("executor_stall",),
          lambda n: [ExecutorStall("classifier", n // 3, msec(500))]),
        s("silent_sensor",
          "front lidar silent mid-run",
          ("silent_sensor",),
          lambda n: [SilentSensor("front", n // 4, n // 2)]),
        s("silent_sensor_boot",
          "front lidar silent from boot: the monitor never self-arms",
          ("silent_sensor",),
          lambda n: [SilentSensor("front", 0, n // 3)],
          watchdog_required=True),
        s("sensor_stuck",
          "rear lidar frozen on its last sweep (passes liveliness)",
          ("sensor_stuck",),
          lambda n: [StuckSensor("rear", n // 4, n // 2)]),
    ]


class _OkOnlyReporter:
    """Forwards only OK reports -- the oracle-discrimination lesion."""

    def __init__(self, inner):
        self._inner = inner

    def report(self, segment_name, activation, outcome, **kwargs):
        if outcome is Outcome.OK:
            self._inner.report(segment_name, activation, outcome, **kwargs)

    def report_exception(self, exception):
        pass


def _silence_violation_reports(stack) -> None:
    for source in list(stack.local_runtimes.values()) + list(
        stack.remote_monitors.values()
    ):
        source.reporters = [_OkOnlyReporter(r) for r in source.reporters]


class FaultCampaign:
    """Runs a scenario matrix and verifies both oracles per scenario."""

    def __init__(
        self,
        scenarios: Optional[Sequence[FaultScenario]] = None,
        config: Optional[CampaignConfig] = None,
    ):
        self.scenarios = list(scenarios) if scenarios is not None \
            else default_scenarios()
        self.config = config or CampaignConfig()

    def run(self) -> CampaignResult:
        """Execute every scenario (each on a fresh stack)."""
        results = []
        for scenario in self.scenarios:
            if scenario.watchdog_required and not self.config.watchdog:
                continue
            results.append(self.run_scenario(scenario))
        return CampaignResult(scenarios=results)

    def run_scenario(self, scenario: FaultScenario) -> ScenarioResult:
        """Build, fault, run and judge one scenario."""
        cc = self.config
        # Verdicts read ground truth and monitor records, never the
        # stack's tracer, so no trace point is armed; a scenario that
        # wants its run traced says so in ``config_overrides``.
        stack_config = dataclasses.replace(
            StackConfig(seed=cc.seed, spans=cc.spans, trace_prefixes=()),
            **scenario.config_overrides,
        )
        stack = PerceptionStack(stack_config)
        truth = GroundTruthRecorder(stack)
        injectors = scenario.build(cc.n_frames)
        for injector in injectors:
            injector.arm(stack)

        manager = None
        watchdog = None
        if cc.degradation:
            manager = GracefulDegradationManager(
                stack, policy=cc.policy, watchdog=cc.watchdog
            )
            manager.start(cc.n_frames)
            watchdog = manager.watchdog
        elif cc.watchdog:
            watchdog = MonitorWatchdog(stack)
            watchdog.start(max(0, (cc.n_frames - 3) * stack_config.period))
        if cc.disable_violation_reporting:
            _silence_violation_reports(stack)

        stack.run(n_frames=cc.n_frames)
        for runtime in stack.chain_runtimes.values():
            runtime.advance_window(cc.n_frames - 1)

        first = WARMUP
        last = cc.n_frames - TAIL
        epsilon = (
            stack.ptp.error_bound()
            + sum(i.clock_error_bound() for i in injectors)
            + EPSILON_MARGIN
        )
        soundness = check_soundness(stack, truth, epsilon, first, last)
        completeness = check_completeness(stack, truth, first, last)

        detections = 0
        for source in list(stack.local_runtimes.values()) + list(
            stack.remote_monitors.values()
        ):
            detections += sum(
                1 for n, _lat, outcome in source.latencies
                if outcome in (Outcome.MISS, Outcome.RECOVERED)
                and first <= n < last
            )
        alert_counts, telemetry_records = self._replay_telemetry(
            stack, scenario.name, cc.n_frames, manager
        )
        return ScenarioResult(
            name=scenario.name,
            fault_classes=scenario.fault_classes,
            n_frames=cc.n_frames,
            soundness=soundness,
            completeness=completeness,
            detections=detections,
            injections=sum(len(i.injections) for i in injectors),
            final_mode=manager.mode.value if manager is not None else None,
            mode_transitions=[
                (t, old.value, new.value, reason)
                for t, old, new, reason in (manager.transitions if manager else [])
            ],
            safe_state_entries=manager.safe_state_entries if manager else 0,
            watchdog_rearms=len(watchdog.rearms) if watchdog else 0,
            epsilon_ns=epsilon,
            alert_counts=alert_counts,
            telemetry_records=telemetry_records,
        )

    @staticmethod
    def _replay_telemetry(
        stack, source: str, n_frames: int, manager
    ) -> Tuple[Dict[str, int], int]:
        """Replay the finished run through a fresh telemetry service.

        Only data time flows in (synthesized timestamps, recorded
        latencies), so serial and parallel campaign runs produce
        identical alert counts.
        """
        from repro.telemetry.replay import (
            replay_stack_batch,
            stack_store_config,
        )
        from repro.telemetry.service import (
            DEFAULT_CAPACITY,
            ServiceConfig,
            TelemetryService,
        )

        batch = replay_stack_batch(stack, source, n_frames, manager=manager)
        # The replay is offline: the capacity is sized to the run, so a
        # long soak is never judged by a backpressure drop of its own
        # making.
        service = TelemetryService(ServiceConfig(
            store=stack_store_config(stack),
            queue_capacity=max(DEFAULT_CAPACITY, len(batch)),
        ))
        service.ingest_batch(batch)
        service.poll()
        return service.alert_log.counts_by_rule(), service.applied


def run_default_campaign(
    config: Optional[CampaignConfig] = None,
) -> CampaignResult:
    """Convenience entry point: the standard matrix, default config."""
    return FaultCampaign(config=config).run()
