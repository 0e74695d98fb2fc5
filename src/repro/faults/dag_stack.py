"""A fork/join perception-fusion pipeline on selectable executor models.

The linear fault campaign runs the paper's two-ECU Autoware stack; this
module is its DAG counterpart, exercising exactly the topology the
linear model cannot express::

    cam --link--> ECU1[fusion join] --link--> ECU2[plan sink]
    lid --link-->                              ECU2[viz  sink]

Monitored segments (a genuine join at ``s_xfer``, fork to two sinks)::

    s_cam, s_lid        remote   sensor publication -> ECU1 receive
    s_fuse_cam/_lid     local    ECU1 receive -> fused publication
    s_xfer              remote   fused publication -> ECU2 receive
    s_plan, s_viz       local    ECU2 receive -> sink receive

Four root->sink paths (cam/lid x plan/viz) with *different* sink
deadlines, each supervised end-to-end by a per-path monitor feeding the
per-path chain runtimes of :class:`~repro.core.dag_runtime.DagChainRuntime`.

Compute stages dispatch through the faithful ROS 2 executor models of
:mod:`repro.ros.executors` -- the executor is a *scenario parameter*, so
the same fault hypothesis runs under single-threaded polling-point,
multi-threaded callback-group, and priority-driven semantics.

The pipeline runs on the production kernel
(:class:`~repro.sim.kernel.Simulator`).  Everything is seeded:
per-stream ``np.random.Generator`` instances are derived from
``(seed, stream index)`` so runs are bit-identical across processes and
platforms (the same discipline the simulator's own streams use).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.chain_runtime import Outcome
from repro.core.dag import DagChain
from repro.core.dag_runtime import DagChainRuntime
from repro.core.segments import local_segment, remote_segment
from repro.core.weakly_hard import MKConstraint
from repro.ros.executors import EXECUTOR_MODELS, CallbackGroup, CallbackSpec
from repro.sim.kernel import Simulator, msec, usec

#: The DAG's segment names, registration order.
DAG_SEGMENT_NAMES = (
    "s_cam", "s_lid", "s_fuse_cam", "s_fuse_lid", "s_xfer", "s_plan", "s_viz",
)

#: RNG stream registry: name -> stable sub-seed index.
_RNG_STREAMS = (
    "cam_jitter", "lid_jitter", "link_cam", "link_lid", "link_xfer",
    "store_exec", "fuse_exec", "plan_exec", "viz_exec",
)


def _default_d_mon() -> Dict[str, int]:
    return {
        "s_cam": msec(10),
        "s_lid": msec(10),
        "s_fuse_cam": msec(8),
        "s_fuse_lid": msec(8),
        "s_xfer": msec(10),
        "s_plan": msec(60),
        "s_viz": msec(40),
    }


@dataclass
class DagStackConfig:
    """Everything tunable about the DAG pipeline."""

    seed: int = 1
    period: int = msec(100)
    #: Executor model per compute ECU: a key of
    #: :data:`~repro.ros.executors.EXECUTOR_MODELS`.
    executor_model: str = "single"
    mk: MKConstraint = field(default_factory=lambda: MKConstraint(2, 8))
    #: Monitored deadline per segment; per-path e2e deadlines telescope.
    d_mon: Dict[str, int] = field(default_factory=_default_d_mon)
    #: Slack between a path's monitored deadline and its sink's hard
    #: end-to-end budget (covers clock error + handler time).
    budget_slack: int = msec(20)
    # Platform.
    link_latency: int = usec(500)
    link_jitter: int = usec(150)
    store_exec_ns: int = usec(200)
    fuse_exec_ns: int = msec(4)
    plan_exec_ns: int = msec(8)
    viz_exec_ns: int = msec(3)
    compute_noise: float = 0.2
    # Fault hooks (installed by injectors; frame index is the argument).
    drop_source: List[Callable[[str, int], bool]] = field(default_factory=list)
    link_extra_delay: List[Callable[[str, int], int]] = field(default_factory=list)
    exec_scale: List[Callable[[str, int], float]] = field(default_factory=list)
    stall_exec: List[Callable[[int], Optional[int]]] = field(default_factory=list)
    #: Monitor clock error as a function of global time (ns -> ns).
    clock_error: List[Callable[[int], int]] = field(default_factory=list)


def build_perception_dag(config: DagStackConfig) -> DagChain:
    """The fork/join DAG instance (segments, edges, per-sink budgets)."""
    d = config.d_mon
    segments = [
        remote_segment("s_cam", "cam_points", "cam", "ecu1",
                       src_process="cam_driver", dst_process="fusion",
                       d_mon=d["s_cam"]),
        remote_segment("s_lid", "lid_points", "lid", "ecu1",
                       src_process="lid_driver", dst_process="fusion",
                       d_mon=d["s_lid"]),
        local_segment("s_fuse_cam", "ecu1", "cam_points", "fused",
                      start_process="fusion", end_process="fusion",
                      d_mon=d["s_fuse_cam"]),
        local_segment("s_fuse_lid", "ecu1", "lid_points", "fused",
                      start_process="fusion", end_process="fusion",
                      d_mon=d["s_fuse_lid"]),
        remote_segment("s_xfer", "fused", "ecu1", "ecu2",
                       src_process="fusion", dst_process="plan",
                       d_mon=d["s_xfer"]),
        local_segment("s_plan", "ecu2", "fused", "plan_out",
                      start_process="plan", end_process="plan",
                      d_mon=d["s_plan"]),
        local_segment("s_viz", "ecu2", "fused", "viz_out",
                      start_process="plan", end_process="viz",
                      d_mon=d["s_viz"]),
    ]
    edges = [
        ("s_cam", "s_fuse_cam"),
        ("s_lid", "s_fuse_lid"),
        ("s_fuse_cam", "s_xfer"),
        ("s_fuse_lid", "s_xfer"),
        ("s_xfer", "s_plan"),
        ("s_xfer", "s_viz"),
    ]
    # Per-sink budgets: the worst telescoped d_mon into that sink plus
    # slack, so detection (within the telescoped deadline) always
    # precedes a hard budget violation.
    into_plan = max(d["s_cam"] + d["s_fuse_cam"], d["s_lid"] + d["s_fuse_lid"])
    budgets = {
        "s_plan": into_plan + d["s_xfer"] + d["s_plan"] + config.budget_slack,
        "s_viz": into_plan + d["s_xfer"] + d["s_viz"] + config.budget_slack,
    }
    return DagChain(
        name="perception_fusion",
        segments=segments,
        edges=edges,
        period=config.period,
        budget_e2e=budgets,
        budget_seg=config.period,
        mk=config.mk,
    )


class DagGroundTruth:
    """Omniscient global-time event log of one DAG run.

    Like the linear campaign's recorder, this sees *physical* events in
    global simulation time -- a privilege no in-system monitor has.
    """

    def __init__(self, period: int):
        self.period = period
        #: source branch -> frame -> publication time.
        self.source_pub: Dict[str, Dict[int, int]] = {"cam": {}, "lid": {}}
        #: source branch -> frame -> ECU1 arrival time.
        self.arrival: Dict[str, Dict[int, int]] = {"cam": {}, "lid": {}}
        #: frame -> fused publication time.
        self.fused_pub: Dict[int, int] = {}
        #: frame -> ECU2 arrival time.
        self.xfer_arrival: Dict[int, int] = {}
        #: sink segment -> frame -> completion time.
        self.completion: Dict[str, Dict[int, int]] = {"s_plan": {}, "s_viz": {}}

    def sink_completion(self, sink: str, frame: int) -> Optional[int]:
        """Global completion time of one sink for one activation."""
        return self.completion[sink].get(frame)

    def e2e_latency(self, sink: str, frame: int) -> Optional[int]:
        """Sink completion relative to the nominal activation instant."""
        completed = self.sink_completion(sink, frame)
        if completed is None:
            return None
        return completed - frame * self.period


@dataclass
class PathVerdict:
    """One path monitor's report for one activation."""

    outcome: Outcome
    #: Monitor-measured latency (its own clock); None for timeouts.
    latency: Optional[int]


class PathMonitor:
    """End-to-end monitor of one root->sink path.

    Measures sink completions against the path's telescoped monitored
    deadline using its *local* clock (global time plus the injected
    clock error), and arms a timeout per activation so a frame that
    never completes still produces a detection -- the no-silent-
    violation requirement.
    """

    def __init__(self, stack: "DagStack", path_id: str, sink: str, deadline: int):
        self.stack = stack
        self.path_id = path_id
        self.sink = sink
        self.deadline = deadline
        self.reported: Dict[int, PathVerdict] = {}

    def local_time(self, global_time: int) -> int:
        return global_time + self.stack.monitor_clock_error(global_time)

    def arm(self, frame: int) -> None:
        nominal = frame * self.stack.config.period
        # The timeout fires when the monitor's clock reads the deadline;
        # invert the (piecewise constant per frame) error estimate.
        fire_at = max(
            self.stack.sim.now,
            nominal + self.deadline - self.stack.monitor_clock_error(nominal),
        )
        self.stack.sim.schedule_at(fire_at, self._timeout, frame)

    def on_completion(self, frame: int, global_time: int) -> None:
        if frame in self.reported:
            return  # timeout already fired for this activation
        measured = self.local_time(global_time) - frame * self.stack.config.period
        outcome = Outcome.OK if measured <= self.deadline else Outcome.MISS
        self.reported[frame] = PathVerdict(outcome=outcome, latency=measured)
        self.stack.runtime.report_path(
            self.path_id, frame, outcome, latency=measured
        )

    def _timeout(self, frame: int) -> None:
        # Monitor-visible state only: completions file their verdict
        # synchronously, so ``frame in self.reported`` fully covers the
        # completed-before-timeout race.  Consulting the ground-truth
        # recorder here would break monitor/oracle independence.
        if frame in self.reported:
            return  # completed (OK or late) before the timeout fired
        self.reported[frame] = PathVerdict(outcome=Outcome.MISS, latency=None)
        self.stack.runtime.report_path(self.path_id, frame, Outcome.MISS)


class DagStack:
    """Builds and runs the fork/join pipeline on one executor model."""

    def __init__(self, config: Optional[DagStackConfig] = None):
        self.config = config or DagStackConfig()
        cfg = self.config
        if cfg.executor_model not in EXECUTOR_MODELS:
            raise ValueError(
                f"unknown executor model {cfg.executor_model!r} "
                f"(have {sorted(EXECUTOR_MODELS)})"
            )
        self.dag = build_perception_dag(cfg)
        self.sim = Simulator()
        self.truth = DagGroundTruth(cfg.period)
        self.runtime = DagChainRuntime(self.dag)
        self._rng: Dict[str, np.random.Generator] = {
            name: np.random.default_rng(
                np.random.SeedSequence([cfg.seed, index])
            )
            for index, name in enumerate(_RNG_STREAMS)
        }
        factory = EXECUTOR_MODELS[cfg.executor_model]
        self.exec_ecu1 = factory(self.sim, "ecu1")
        self.exec_ecu2 = factory(self.sim, "ecu2")
        self._register_callbacks()
        #: frame -> set of branches whose input reached fusion.
        self._join_state: Dict[int, set] = {}
        self._fused_submitted: set = set()
        self.monitors: List[PathMonitor] = []
        for path in self.dag.paths():
            deadline = sum(
                cfg.d_mon[s] for s in path.segment_names
            )
            self.monitors.append(
                PathMonitor(self, path.path_id, path.sink, deadline)
            )
        self.n_frames = 0

    # ------------------------------------------------------------------
    def _register_callbacks(self) -> None:
        # Fusion callbacks share a mutually exclusive group (they mutate
        # the join buffer); the fuse work itself is in the same group.
        self.exec_ecu1.add_group(CallbackGroup("fusion_group"))
        self.exec_ecu1.add_callback(
            CallbackSpec("on_cam", group="fusion_group", priority=5),
            self._on_sensor_input,
        )
        self.exec_ecu1.add_callback(
            CallbackSpec("on_lid", group="fusion_group", priority=5),
            self._on_sensor_input,
        )
        self.exec_ecu1.add_callback(
            CallbackSpec("fuse", group="fusion_group", priority=3),
            self._on_fused,
        )
        # Plan is the urgent consumer, viz the lazy one; the background
        # hog models a runaway diagnostic callback (stall fault).
        self.exec_ecu2.add_group(CallbackGroup("consumers", reentrant=True))
        self.exec_ecu2.add_callback(
            CallbackSpec("plan", group="consumers", priority=10),
            lambda frame: self._on_sink("s_plan", frame),
        )
        self.exec_ecu2.add_callback(
            CallbackSpec("viz", group="consumers", priority=4),
            lambda frame: self._on_sink("s_viz", frame),
        )
        self.exec_ecu2.add_callback(
            CallbackSpec("hog", group="consumers", priority=0),
            lambda _payload: None,
        )

    # ------------------------------------------------------------------
    # Fault hook evaluation
    # ------------------------------------------------------------------
    def _dropped(self, source: str, frame: int) -> bool:
        return any(hook(source, frame) for hook in self.config.drop_source)

    def _extra_delay(self, link: str, frame: int) -> int:
        return sum(hook(link, frame) for hook in self.config.link_extra_delay)

    def _scale(self, node: str, frame: int) -> float:
        scale = 1.0
        for hook in self.config.exec_scale:
            scale *= hook(node, frame)
        return scale

    def monitor_clock_error(self, global_time: int) -> int:
        """Total injected clock error of the monitor at *global_time*."""
        return sum(hook(global_time) for hook in self.config.clock_error)

    def clock_error_bound(self) -> int:
        """Worst-case |clock error| over the run (oracle epsilon)."""
        horizon = max(1, self.n_frames) * self.config.period * 2
        bound = 0
        for t in range(0, horizon + 1, self.config.period // 4):
            bound = max(bound, abs(self.monitor_clock_error(t)))
        return bound

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    def _noisy(self, stream: str, base_ns: int) -> int:
        noise = self._rng[stream].normal(0.0, self.config.compute_noise)
        return max(1, int(base_ns * (1.0 + abs(noise))))

    def _link_delay(self, stream: str, frame: int, link: str) -> int:
        cfg = self.config
        jitter = abs(self._rng[stream].normal(0.0, 1.0)) * cfg.link_jitter
        return cfg.link_latency + int(jitter) + self._extra_delay(link, frame)

    def _emit_frame(self, frame: int) -> None:
        for branch, jitter_stream, link_stream in (
            ("cam", "cam_jitter", "link_cam"),
            ("lid", "lid_jitter", "link_lid"),
        ):
            if self._dropped(branch, frame):
                continue
            publish_at = self.sim.now + int(
                abs(self._rng[jitter_stream].normal(0.0, 1.0)) * usec(50)
            )
            self.sim.schedule_at(
                publish_at, self._publish, branch, frame, link_stream
            )

    def _publish(self, branch: str, frame: int, link_stream: str) -> None:
        self.truth.source_pub[branch][frame] = self.sim.now
        delay = self._link_delay(link_stream, frame, f"link_{branch}")
        self.sim.schedule_after(delay, self._arrive, branch, frame)

    def _arrive(self, branch: str, frame: int) -> None:
        self.truth.arrival[branch][frame] = self.sim.now
        callback = "on_cam" if branch == "cam" else "on_lid"
        exec_ns = int(
            self._noisy("store_exec", self.config.store_exec_ns)
            * self._scale("fusion", frame)
        )
        self.exec_ecu1.submit(callback, exec_ns, payload=(branch, frame))

    def _on_sensor_input(self, payload: Tuple[str, int]) -> None:
        branch, frame = payload
        present = self._join_state.setdefault(frame, set())
        present.add(branch)
        if present == {"cam", "lid"} and frame not in self._fused_submitted:
            self._fused_submitted.add(frame)
            exec_ns = int(
                self._noisy("fuse_exec", self.config.fuse_exec_ns)
                * self._scale("fusion", frame)
            )
            self.exec_ecu1.submit("fuse", exec_ns, payload=frame)

    def _on_fused(self, frame: int) -> None:
        self.truth.fused_pub[frame] = self.sim.now
        delay = self._link_delay("link_xfer", frame, "link_xfer")
        self.sim.schedule_after(delay, self._xfer_arrive, frame)

    def _xfer_arrive(self, frame: int) -> None:
        self.truth.xfer_arrival[frame] = self.sim.now
        plan_ns = int(
            self._noisy("plan_exec", self.config.plan_exec_ns)
            * self._scale("plan", frame)
        )
        viz_ns = int(
            self._noisy("viz_exec", self.config.viz_exec_ns)
            * self._scale("viz", frame)
        )
        self.exec_ecu2.submit("plan", plan_ns, payload=frame)
        self.exec_ecu2.submit("viz", viz_ns, payload=frame)

    def _on_sink(self, sink: str, frame: int) -> None:
        self.truth.completion[sink].setdefault(frame, self.sim.now)
        for monitor in self.monitors:
            if monitor.sink == sink:
                monitor.on_completion(frame, self.sim.now)

    def _frame_start(self, frame: int) -> None:
        for hook in self.config.stall_exec:
            stall_ns = hook(frame)
            if stall_ns:
                self.exec_ecu2.submit("hog", stall_ns, payload=frame)
        for monitor in self.monitors:
            monitor.arm(frame)
        self._emit_frame(frame)

    # ------------------------------------------------------------------
    def run(self, n_frames: int) -> None:
        """Drive the pipeline for *n_frames* periods and settle."""
        self.n_frames = n_frames
        cfg = self.config
        for frame in range(n_frames):
            self.sim.schedule_at(frame * cfg.period, self._frame_start, frame)
        # Settle long enough for the last frame's timeout monitors.
        horizon = (n_frames + 3) * cfg.period + max(
            m.deadline for m in self.monitors
        )
        self.sim.run(until=horizon)
        self.runtime.advance_window(n_frames - 1)

    # ------------------------------------------------------------------
    # Results access
    # ------------------------------------------------------------------
    def detections(self, first: int, last: int) -> int:
        """Reported MISS verdicts across paths in ``[first, last)``."""
        return sum(
            1
            for monitor in self.monitors
            for frame, verdict in monitor.reported.items()
            if first <= frame < last and verdict.outcome is Outcome.MISS
        )
