"""DAG fault campaign: fork/join scenarios x executor models, with oracles.

Each :class:`DagFaultScenario` pairs a fault hypothesis with an executor
model and runs the fork/join perception-fusion pipeline
(:mod:`repro.faults.dag_stack`) under it.  Two omniscient oracles judge
every root->sink path independently:

- **Soundness** -- a reported per-path MISS implies the path's true
  end-to-end latency exceeded its telescoped monitored deadline
  ``D_p`` minus the clock-error band epsilon (no false alarms).
- **No silent violation** -- a true latency above ``D_p + epsilon`` (or
  a frame that never completed) implies the path monitor reported a
  MISS for that activation (completeness).

The matrix deliberately includes executor-model *pairs* under the same
fault -- e.g. ``cpu_overload`` on the single-threaded executor blocks
the visualization path behind planning (head-of-line blocking at the
polling point) while the multi-threaded reentrant executor isolates it
-- so the per-path verdicts demonstrate why monitoring the DAG's paths
separately matters.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.chain_runtime import Outcome
from repro.faults.campaign import campaign_frames
from repro.faults.dag_stack import DagStack, DagStackConfig
from repro.faults.oracles import OracleFailure, OracleReport
from repro.sim.kernel import msec, usec

#: Oracle names (mirror the linear campaign's).
DAG_SOUNDNESS = "dag_soundness"
DAG_COMPLETENESS = "dag_no_silent_violation"


# ----------------------------------------------------------------------
# Fault injectors (DAG-stack hook based)
# ----------------------------------------------------------------------
class DagFault:
    """Base class: arms hooks on a :class:`DagStack` before the run."""

    fault_class = "unknown"

    def __init__(self) -> None:
        #: Physical fault actions actually taken (deterministic).
        self.injections: List[Tuple] = []

    def arm(self, stack: DagStack) -> None:
        raise NotImplementedError

    def clock_error_bound(self) -> int:
        """Worst-case monitor clock error this fault can induce (ns)."""
        return 0


class DagLossBurst(DagFault):
    """A sensor branch's samples are dropped for a frame window."""

    fault_class = "loss_burst"

    def __init__(self, source: str, start: int, end: int):
        super().__init__()
        self.source = source
        self.start = start
        self.end = end

    def arm(self, stack: DagStack) -> None:
        def hook(source: str, frame: int) -> bool:
            if source == self.source and self.start <= frame < self.end:
                self.injections.append(("drop", source, frame))
                return True
            return False

        stack.config.drop_source.append(hook)


class DagSilentSensor(DagLossBurst):
    """A sensor goes silent mid-run and stays silent for a long window."""

    fault_class = "silent_sensor"


class DagLatencySpike(DagFault):
    """One link gains a constant extra delay for a frame window."""

    fault_class = "latency_spike"

    def __init__(self, link: str, start: int, end: int, extra_ns: int):
        super().__init__()
        self.link = link
        self.start = start
        self.end = end
        self.extra_ns = extra_ns

    def arm(self, stack: DagStack) -> None:
        def hook(link: str, frame: int) -> int:
            if link == self.link and self.start <= frame < self.end:
                self.injections.append(("delay", link, frame, self.extra_ns))
                return self.extra_ns
            return 0

        stack.config.link_extra_delay.append(hook)


class DagCpuOverload(DagFault):
    """A compute node's execution times inflate by a factor."""

    fault_class = "cpu_overload"

    def __init__(self, node: str, start: int, end: int, factor: float):
        super().__init__()
        self.node = node
        self.start = start
        self.end = end
        self.factor = factor

    def arm(self, stack: DagStack) -> None:
        def hook(node: str, frame: int) -> float:
            if node == self.node and self.start <= frame < self.end:
                self.injections.append(("overload", node, frame))
                return self.factor
            return 1.0

        stack.config.exec_scale.append(hook)


class DagExecutorStall(DagFault):
    """A runaway low-priority callback hogs the sink-side executor."""

    fault_class = "executor_stall"

    def __init__(self, start: int, end: int, stall_ns: int):
        super().__init__()
        self.start = start
        self.end = end
        self.stall_ns = stall_ns

    def arm(self, stack: DagStack) -> None:
        def hook(frame: int) -> Optional[int]:
            if self.start <= frame < self.end:
                self.injections.append(("stall", frame, self.stall_ns))
                return self.stall_ns
            return None

        stack.config.stall_exec.append(hook)


class DagClockDrift(DagFault):
    """The monitor's clock ramps away from global time within a window."""

    fault_class = "clock_drift"

    def __init__(self, start: int, end: int, ppm: float):
        super().__init__()
        self.start = start
        self.end = end
        self.ppm = ppm
        self._period = 0

    def arm(self, stack: DagStack) -> None:
        self._period = stack.config.period
        start_t = self.start * self._period
        end_t = self.end * self._period

        def hook(global_time: int) -> int:
            elapsed = min(max(global_time - start_t, 0), end_t - start_t)
            return int(self.ppm * 1e-6 * elapsed)

        stack.config.clock_error.append(hook)
        self.injections.extend(
            ("drift", frame) for frame in range(self.start, self.end)
        )

    def clock_error_bound(self) -> int:
        return int(self.ppm * 1e-6 * (self.end - self.start) * self._period) + 1


# ----------------------------------------------------------------------
# Scenario matrix
# ----------------------------------------------------------------------
@dataclass
class DagFaultScenario:
    """One fault hypothesis under one executor model."""

    name: str
    description: str
    fault_classes: Tuple[str, ...]
    #: Executor model key (see :data:`repro.ros.executors.EXECUTOR_MODELS`).
    executor_model: str
    #: Builds the injectors for a run of *n_frames* activations.
    build: Callable[[int], List[DagFault]]
    #: DagStackConfig field overrides.
    config_overrides: dict = field(default_factory=dict)


def default_dag_scenarios() -> List[DagFaultScenario]:
    """The DAG campaign matrix: 6 fault classes x 3 executor models."""

    def s(name, description, classes, executor, build, **overrides):
        return DagFaultScenario(
            name=name, description=description, fault_classes=classes,
            executor_model=executor, build=build,
            config_overrides=overrides,
        )

    return [
        s("dag_baseline_single",
          "fault-free fork/join pipeline on the single-threaded executor",
          ("baseline",), "single",
          lambda n: []),
        s("dag_loss_burst_single",
          "camera branch drops every frame for a quarter of the run",
          ("loss_burst",), "single",
          lambda n: [DagLossBurst("cam", n // 4, n // 2)]),
        s("dag_silent_sensor_multi",
          "lidar silent from a third of the run until near the end",
          ("silent_sensor",), "multi",
          lambda n: [DagSilentSensor("lid", n // 3, n - 6)]),
        s("dag_latency_spike_single",
          "fused-output transfer link gains +80 ms, beyond every sink",
          ("latency_spike",), "single",
          lambda n: [DagLatencySpike("link_xfer", n // 4, n // 2, msec(80))]),
        s("dag_cpu_overload_single",
          "planner 12x overrun; polling point also starves the viz path",
          ("cpu_overload",), "single",
          lambda n: [DagCpuOverload("plan", n // 4, n // 2, 12.0)]),
        s("dag_cpu_overload_multi",
          "planner 12x overrun; reentrant group isolates the viz path",
          ("cpu_overload",), "multi",
          lambda n: [DagCpuOverload("plan", n // 4, n // 2, 12.0)]),
        s("dag_executor_stall_single",
          "110 ms diagnostic hog per frame blocks the sink executor",
          ("executor_stall",), "single",
          lambda n: [DagExecutorStall(n // 4, n // 2, msec(110))]),
        s("dag_executor_stall_priority",
          "same 110 ms hog; priority-driven dispatch rescues both sinks",
          ("executor_stall",), "priority",
          lambda n: [DagExecutorStall(n // 4, n // 2, msec(110))]),
        s("dag_drift_spike_multi",
          "monitor clock drifts at 15000 ppm while the transfer link spikes",
          ("clock_drift", "latency_spike"), "multi",
          lambda n: [DagClockDrift(n // 4, n - 8, 15000.0),
                     DagLatencySpike("link_xfer", n // 3, n // 2, msec(80))]),
    ]


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def check_dag_soundness(
    stack: DagStack, epsilon_ns: int, first: int, last: int
) -> OracleReport:
    """No false alarms: a reported MISS implies a real deadline overrun.

    For every path p and activation n in ``[first, last)``: if the path
    monitor reported MISS, the ground-truth end-to-end latency must not
    be provably fine, i.e. it must NOT hold that
    ``L_true <= D_p - epsilon``.
    """
    failures = []
    checked = 0
    for monitor in stack.monitors:
        for frame in range(first, last):
            verdict = monitor.reported.get(frame)
            if verdict is None or verdict.outcome is not Outcome.MISS:
                continue
            checked += 1
            true_latency = stack.truth.e2e_latency(monitor.sink, frame)
            if true_latency is None:
                continue  # never completed: the MISS is trivially sound
            if true_latency <= monitor.deadline - epsilon_ns:
                failures.append(OracleFailure(
                    oracle=DAG_SOUNDNESS,
                    subject=monitor.path_id,
                    activation=frame,
                    detail=(
                        f"reported MISS but true latency "
                        f"{true_latency} <= D_p {monitor.deadline} "
                        f"- eps {epsilon_ns}"
                    ),
                ))
    return OracleReport(name=DAG_SOUNDNESS, checked=checked, failures=failures)


def check_dag_completeness(
    stack: DagStack, epsilon_ns: int, first: int, last: int
) -> OracleReport:
    """No silent violation: every real overrun is reported per path.

    For every path p and activation n in ``[first, last)``: if the
    ground truth shows no completion, or a latency above
    ``D_p + epsilon``, the path monitor must have reported MISS.
    """
    failures = []
    checked = 0
    for monitor in stack.monitors:
        for frame in range(first, last):
            true_latency = stack.truth.e2e_latency(monitor.sink, frame)
            violated = (
                true_latency is None
                or true_latency > monitor.deadline + epsilon_ns
            )
            if not violated:
                continue
            checked += 1
            verdict = monitor.reported.get(frame)
            if verdict is None:
                failures.append(OracleFailure(
                    oracle=DAG_COMPLETENESS,
                    subject=monitor.path_id,
                    activation=frame,
                    detail=f"true latency {true_latency} but no verdict",
                ))
            elif verdict.outcome is not Outcome.MISS:
                failures.append(OracleFailure(
                    oracle=DAG_COMPLETENESS,
                    subject=monitor.path_id,
                    activation=frame,
                    detail=(
                        f"true latency {true_latency} > D_p "
                        f"{monitor.deadline} + eps {epsilon_ns} but "
                        f"verdict {verdict.outcome.value}"
                    ),
                ))
    return OracleReport(
        name=DAG_COMPLETENESS, checked=checked, failures=failures
    )


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------
@dataclass
class DagCampaignConfig:
    """Execution parameters shared by every DAG scenario."""

    n_frames: int = field(default_factory=campaign_frames)
    seed: int = 17
    warmup: int = 2
    tail: int = 4
    epsilon_margin: int = usec(500)

    def __post_init__(self) -> None:
        if self.n_frames < self.warmup + self.tail + 8:
            raise ValueError(
                f"n_frames={self.n_frames} too small for "
                f"warmup={self.warmup} + tail={self.tail}"
            )


@dataclass
class DagScenarioResult:
    """Everything observed while running one DAG scenario."""

    name: str
    fault_classes: Tuple[str, ...]
    executor_model: str
    n_frames: int
    soundness: OracleReport
    completeness: OracleReport
    #: Reported per-path MISS verdicts inside the check window.
    detections: int
    #: Physical fault actions the injectors recorded.
    injections: int
    epsilon_ns: int
    #: path id -> summary of the finalized per-path chain report.
    path_reports: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Path ids whose (m,k) automaton fired during the run.
    violated_paths: List[str] = field(default_factory=list)
    alert_counts: Dict[str, int] = field(default_factory=dict)
    telemetry_records: int = 0

    @property
    def passed(self) -> bool:
        """Both per-path oracles hold."""
        return self.soundness.passed and self.completeness.passed

    def digest_payload(self) -> dict:
        """Canonical JSON-able content for golden-trace pinning."""
        return {
            "name": self.name,
            "executor_model": self.executor_model,
            "n_frames": self.n_frames,
            "detections": self.detections,
            "injections": self.injections,
            "path_reports": {
                path_id: dict(sorted(report.items()))
                for path_id, report in sorted(self.path_reports.items())
            },
            "violated_paths": sorted(self.violated_paths),
            "alert_counts": dict(sorted(self.alert_counts.items())),
            "telemetry_records": self.telemetry_records,
        }

    def digest(self) -> str:
        """Stable sha256 over the scenario's observable behaviour."""
        payload = json.dumps(
            self.digest_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class DagCampaignResult:
    """Aggregate outcome of a DAG campaign."""

    scenarios: List[DagScenarioResult]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.scenarios)

    @property
    def fault_classes_covered(self) -> set:
        return {c for s in self.scenarios for c in s.fault_classes}

    @property
    def executor_models_covered(self) -> set:
        return {s.executor_model for s in self.scenarios}

    def render_report(self) -> str:
        """Human-readable scenario x executor matrix."""
        lines = [
            f"{'scenario':26s} {'classes':24s} {'exec':>8s} {'sound':>6s} "
            f"{'complete':>9s} {'detect':>6s} {'mk-viol':>7s} {'alerts':>7s}"
        ]
        for s in self.scenarios:
            lines.append(
                f"{s.name:26s} {','.join(s.fault_classes):24s} "
                f"{s.executor_model:>8s} "
                f"{('PASS' if s.soundness.passed else 'FAIL'):>6s} "
                f"{('PASS' if s.completeness.passed else 'FAIL'):>9s} "
                f"{s.detections:>6d} {len(s.violated_paths):>7d} "
                f"{sum(s.alert_counts.values()):>7d}"
            )
        covered = sorted(self.fault_classes_covered - {"baseline"})
        lines.append(
            f"{len(self.scenarios)} scenarios, "
            f"{len(covered)} fault classes ({', '.join(covered)}), "
            f"executors: {', '.join(sorted(self.executor_models_covered))}"
        )
        lines.append(f"dag campaign: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


class DagCampaign:
    """Runs the DAG scenario matrix and judges every path per scenario."""

    def __init__(
        self,
        scenarios: Optional[Sequence[DagFaultScenario]] = None,
        config: Optional[DagCampaignConfig] = None,
    ):
        self.scenarios = list(scenarios) if scenarios is not None \
            else default_dag_scenarios()
        self.config = config or DagCampaignConfig()

    def run(self) -> DagCampaignResult:
        """Execute every scenario (each on a fresh DAG stack)."""
        return DagCampaignResult(
            scenarios=[self.run_scenario(s) for s in self.scenarios]
        )

    def run_scenario(self, scenario: DagFaultScenario) -> DagScenarioResult:
        """Build, fault, run and judge one DAG scenario."""
        cc = self.config
        stack_config = DagStackConfig(
            seed=cc.seed,
            executor_model=scenario.executor_model,
            **scenario.config_overrides,
        )
        stack = DagStack(stack_config)
        injectors = scenario.build(cc.n_frames)
        for injector in injectors:
            injector.arm(stack)
        stack.run(cc.n_frames)

        first = cc.warmup
        last = cc.n_frames - cc.tail
        epsilon = (
            sum(i.clock_error_bound() for i in injectors)
            + cc.epsilon_margin
        )
        reports = stack.runtime.finalize(cc.n_frames - 1)
        alert_counts, telemetry_records = self._replay_telemetry(stack)
        return DagScenarioResult(
            name=scenario.name,
            fault_classes=scenario.fault_classes,
            executor_model=scenario.executor_model,
            n_frames=cc.n_frames,
            soundness=check_dag_soundness(stack, epsilon, first, last),
            completeness=check_dag_completeness(stack, epsilon, first, last),
            detections=stack.detections(first, last),
            injections=sum(len(i.injections) for i in injectors),
            epsilon_ns=epsilon,
            path_reports={
                path_id: {
                    "misses": report.miss_count,
                    "ok": report.ok_count,
                    "max_window_misses": report.max_window_misses,
                    "mk_satisfied": int(report.mk_satisfied),
                }
                for path_id, report in reports.items()
            },
            violated_paths=stack.runtime.violated_paths,
            alert_counts=alert_counts,
            telemetry_records=telemetry_records,
        )

    @staticmethod
    def _replay_telemetry(stack: DagStack) -> Tuple[Dict[str, int], int]:
        """Replay the finished DAG run through a fresh telemetry service.

        Per-path chain records are keyed by path id, so the fleet
        store's bit-packed automata re-track exactly the windows the
        in-system runtime tracked.  Only data time flows in: rows are
        applied in timestamp order and ``seq`` is the row index in that
        order, so a lossless run replays without a sequence gap.
        """
        from repro.telemetry.batch import RecordBatch
        from repro.telemetry.records import RecordKind
        from repro.telemetry.service import ServiceConfig, TelemetryService
        from repro.telemetry.store import StoreConfig

        cfg = stack.config
        dag = stack.dag
        store = StoreConfig(
            mk_by_chain={
                path.path_id: (dag.mk[path.sink].m, dag.mk[path.sink].k)
                for path in dag.paths()
            },
            budget_by_segment={
                name: cfg.d_mon[name] for name in sorted(dag.segments)
            },
        )
        rows = []
        for monitor in sorted(stack.monitors, key=lambda m: m.path_id):
            for frame in sorted(monitor.reported):
                verdict = monitor.reported[frame]
                latency = verdict.latency
                timestamp = frame * cfg.period + max(
                    0, latency if latency is not None else monitor.deadline
                )
                # A path verdict is OK or MISS: one word serves both rows.
                word = "ok" if verdict.outcome is Outcome.OK else "miss"
                rows.append((
                    RecordKind.SEGMENT, monitor.path_id, monitor.sink, frame,
                    latency, word, timestamp,
                ))
                rows.append((
                    RecordKind.CHAIN, monitor.path_id, "", frame, None, word,
                    timestamp,
                ))
        rows.sort(key=lambda row: row[-1])  # stable: ties keep row order
        kinds, chains, segments, activations, latencies, verdicts, stamps = (
            zip(*rows)
        )
        n = len(rows)
        service = TelemetryService(ServiceConfig(store=store))
        service.ingest_batch(RecordBatch(
            kinds, ["dag_campaign"] * n, chains, segments, activations,
            latencies, verdicts, [""] * n, stamps, range(n),
        ))
        service.drain()
        return service.alert_log.counts_by_rule(), service.applied


def run_dag_campaign(
    config: Optional[DagCampaignConfig] = None,
    scenarios: Optional[Sequence[DagFaultScenario]] = None,
) -> DagCampaignResult:
    """Convenience entry point: the standard DAG matrix."""
    return DagCampaign(scenarios=scenarios, config=config).run()
