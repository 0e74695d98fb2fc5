"""The full Autoware.Auto use case on two simulated ECUs (paper Fig. 1).

Topology::

    lidar_front ECU --link--> ECU1[fusion] --link--> ECU2[classifier,
    lidar_rear  ECU --link-->                         object_detection,
                                                      rviz]

Monitored segments (paper Figs. 1-2):

======  ======  ===========================================================
name    kind    boundaries
======  ======  ===========================================================
s0_front remote publication(points_front)@lidar_front -> receive@ecu1
s0_rear  remote publication(points_rear)@lidar_rear  -> receive@ecu1
s1_front local  receive(points_front)@fusion -> publication(points_fused)
s1_rear  local  receive(points_rear)@fusion  -> publication(points_fused)
s2       remote publication(points_fused)@ecu1 -> receive@ecu2(classifier)
s3_objects local receive(points_fused)@classifier -> receive(objects)@rviz
s3_ground  local receive(points_fused)@classifier -> receive(ground)@rviz
======  ======  ===========================================================

Chains: {front, rear} x {objects, ground} -- four chains sharing all but
their first two segments, activated synchronously with one period, as in
the paper's Fig. 2.  Thread priorities follow the paper's setup: monitor
thread highest, ksoftirq just below, ROS processes in descending order,
middleware event threads at ordinary priority.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core import (
    ChainRuntime,
    EventChain,
    EventKind,
    MKConstraint,
    MonitorThread,
    LocalSegmentRuntime,
    SkipGate,
    SyncRemoteMonitor,
    TimeoutContext,
)
from repro.core.exceptions import ExceptionHandler, PropagateAlways, RecoverAlways
from repro.core.segments import Segment, local_segment, remote_segment
from repro.dds import DdsDomain, QosProfile, Topic
from repro.network import DriftingClock, JitterModel, Link, NetworkStack, PtpService
from repro.perception.clustering import EuclideanClusterDetector
from repro.perception.fusion import FusionService
from repro.perception.ground_filter import RayGroundClassifier
from repro.perception.lidar_driver import FaultFn, LidarDriver, pointcloud_topic
from repro.perception.planner import SinkService
from repro.perception.pointcloud import PointCloud
from repro.perception.scenario import DrivingScenario, ScenarioConfig
from repro.ros import Node
from repro.sim import Ecu, Simulator, msec, sec, usec
from repro.sim.cpu import FrequencyGovernor
from repro.sim.workload import AffineModel
from repro.tracing import Tracer

SEGMENT_NAMES = (
    "s0_front",
    "s0_rear",
    "s1_front",
    "s1_rear",
    "s2",
    "s3_objects",
    "s3_ground",
)


def _default_deadlines() -> Dict[str, int]:
    # s1's deadline must leave room for its *recovery publication* to
    # still meet s2's expectation (prev fused timestamp + P + d_mon(s2)):
    # with normal fusion latency ~1.5 ms and d_mon(s2) = 10 ms, a
    # recovery at +8 ms yields an inter-fused gap of ~106.5 ms < 110 ms,
    # so front-only recoveries genuinely save the chain (paper Fig. 3).
    return {
        "s0_front": msec(10),
        "s0_rear": msec(10),
        "s1_front": msec(8),
        "s1_rear": msec(8),
        "s2": msec(10),
        "s3_objects": msec(100),  # the paper's Fig. 9 deadline
        "s3_ground": msec(100),
    }


@dataclass
class StackConfig:
    """Everything tunable about the deployed use case."""

    seed: int = 1
    period: int = msec(100)  # 10 FPS lidars
    mk: MKConstraint = field(default_factory=lambda: MKConstraint(3, 10))
    budget_e2e: int = msec(250)
    # Monitoring.
    monitoring: bool = True
    #: Scheduling priority of the monitor threads (the paper: highest).
    monitor_priority: int = 99
    #: One monitor thread per ECU (paper default) or one per segment.
    monitor_thread_per_segment: bool = False
    remote_context: TimeoutContext = TimeoutContext.MONITOR_THREAD
    d_mon: Dict[str, int] = field(default_factory=_default_deadlines)
    d_ex: int = 0
    handlers: Dict[str, ExceptionHandler] = field(default_factory=dict)
    # Platform.
    ecu1_cores: int = 2
    ecu2_cores: int = 4
    ecu2_governor: Optional[Callable[[], FrequencyGovernor]] = None
    link_latency: int = usec(200)
    link_jitter: int = usec(100)
    link_loss: float = 0.0
    #: Route inter-ECU traffic through a shared store-and-forward switch
    #: instead of independent links: network jitter becomes *emergent*
    #: from queueing.  ``switch_bg_load`` adds cross traffic on the
    #: ECU2-bound port (0 disables).
    use_switch: bool = False
    switch_port_rate_bps: float = 1e9
    switch_bg_load: float = 0.0
    clock_drift_ppm: float = 10.0
    ptp_period: int = sec(1)
    ptp_residual: int = usec(2)
    # Workload.
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    classify_base_ns: int = 5_000_000
    classify_per_point_ns: float = 4_500.0
    cluster_base_ns: int = 3_000_000
    cluster_per_point_ns: float = 9_000.0
    fusion_base_ns: int = 500_000
    fusion_per_point_ns: float = 100.0
    compute_noise: float = 0.25
    # Fault injection (per lidar; frame -> extra delay ns or None=drop).
    fault_front: Optional[FaultFn] = None
    fault_rear: Optional[FaultFn] = None
    # Tracing.  Event-name prefixes the stack's ``Tracer`` records: None
    # records every trace point, ``()`` none -- no hook is registered
    # and the emitters skip building their fields.
    trace_prefixes: tuple = ("dds.", "monitor.", "syncmon.", "lidar.")
    #: Causal span tracing (critical-path attribution).  Off by default:
    #: the kernel hot path then keeps its span-free fast loop and runs
    #: are bit-identical to builds without the tracing subsystem.
    spans: bool = False


def activation_of(sample) -> Optional[int]:
    """Chain activation index carried in every perception message."""
    return getattr(sample.data, "frame_index", None)


class PerceptionStack:
    """Builds and runs the full use case."""

    def __init__(self, config: Optional[StackConfig] = None):
        self.config = config or StackConfig()
        cfg = self.config
        self.sim = Simulator(seed=cfg.seed)
        self.tracer = Tracer(self.sim, prefixes=cfg.trace_prefixes)
        if cfg.spans:
            from repro.tracing.spans import SpanRecorder

            self.spans = SpanRecorder(self.sim)
            self.sim.spans = self.spans
        else:
            self.spans = None
        self._build_platform()
        self._build_topics()
        self._build_services()
        self._build_segments()
        self._build_chains()
        if cfg.monitoring:
            self._build_monitors()
        else:
            self.monitor_ecu1 = None
            self.monitor_ecu2 = None
            self.local_runtimes = {}
            self.remote_monitors = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_platform(self) -> None:
        cfg = self.config
        self.ecu_lidar_front = Ecu(self.sim, "lidar_front", n_cores=1)
        self.ecu_lidar_rear = Ecu(self.sim, "lidar_rear", n_cores=1)
        self.ecu1 = Ecu(self.sim, "ecu1", n_cores=cfg.ecu1_cores)
        self.ecu2 = Ecu(
            self.sim,
            "ecu2",
            n_cores=cfg.ecu2_cores,
            governor_factory=cfg.ecu2_governor,
        )
        self.ecus = [
            self.ecu_lidar_front,
            self.ecu_lidar_rear,
            self.ecu1,
            self.ecu2,
        ]
        # PTP-synchronized drifting clocks on every ECU.
        clocks = []
        for i, ecu in enumerate(self.ecus):
            drift = cfg.clock_drift_ppm * (1 if i % 2 == 0 else -1)
            clock = DriftingClock(
                self.sim, offset_ns=usec(50) * (i + 1), drift_ppm=drift,
                name=f"{ecu.name}.clock",
            )
            ecu.clock = clock
            clocks.append(clock)
        self.ptp = PtpService(
            self.sim, clocks, sync_period=cfg.ptp_period,
            residual_error=cfg.ptp_residual,
        )
        # Network: stacks for receivers + links towards them.
        self.domain = DdsDomain(self.sim, local_latency=usec(30))
        self.stack1 = NetworkStack(self.ecu1, ksoftirq_priority=90)
        self.stack2 = NetworkStack(self.ecu2, ksoftirq_priority=90)
        self.domain.register_stack(self.ecu1, self.stack1)
        self.domain.register_stack(self.ecu2, self.stack2)
        jitter = JitterModel("lognormal", cfg.link_jitter) if cfg.link_jitter else None

        if cfg.use_switch:
            from repro.network import BackgroundTraffic, EthernetSwitch, SwitchedLink

            self.switch = EthernetSwitch(
                self.sim, port_rate_bps=cfg.switch_port_rate_bps,
                propagation_delay=cfg.link_latency,
            )
            self.switch.attach("ecu1")
            self.switch.attach("ecu2")

            def link(name, src, dst):
                l = SwitchedLink(self.switch, name, loss_prob=cfg.link_loss)
                self.domain.add_link(src, dst, l)
                return l

            if cfg.switch_bg_load > 0:
                self.bg_traffic = BackgroundTraffic(
                    self.switch, "ecu2", utilization=cfg.switch_bg_load
                )
            else:
                self.bg_traffic = None
        else:
            self.switch = None
            self.bg_traffic = None

            def link(name, src, dst):
                l = Link(
                    self.sim, name, base_latency=cfg.link_latency,
                    jitter=jitter, bandwidth_bps=1e9, loss_prob=cfg.link_loss,
                )
                self.domain.add_link(src, dst, l)
                return l

        self.link_front = link("front->ecu1", self.ecu_lidar_front, self.ecu1)
        self.link_rear = link("rear->ecu1", self.ecu_lidar_rear, self.ecu1)
        self.link_12 = link("ecu1->ecu2", self.ecu1, self.ecu2)

    def _build_topics(self) -> None:
        self.topic_front = pointcloud_topic("points_front")
        self.topic_rear = pointcloud_topic("points_rear")
        self.topic_fused = pointcloud_topic("points_fused")
        self.topic_ground = pointcloud_topic("ground_points")
        self.topic_nonground = pointcloud_topic("points_nonground")
        self.topic_objects = Topic(
            "objects", type_name="DetectedObjects", size_fn=lambda o: o.nbytes
        )

    def _build_services(self) -> None:
        cfg = self.config
        self.scenario = DrivingScenario(cfg.scenario)
        node_front = Node(self.domain, self.ecu_lidar_front, "driver",
                          priority=50, middleware_priority=30)
        node_rear = Node(self.domain, self.ecu_lidar_rear, "driver",
                         priority=50, middleware_priority=30)
        self.node_fusion = Node(self.domain, self.ecu1, "fusion",
                                priority=60, middleware_priority=30)
        self.node_classifier = Node(self.domain, self.ecu2, "classifier",
                                    priority=56, middleware_priority=30)
        self.node_detector = Node(self.domain, self.ecu2, "object_detection",
                                  priority=54, middleware_priority=30)
        self.node_rviz = Node(self.domain, self.ecu2, "rviz",
                              priority=52, middleware_priority=30)

        self.lidar_front = LidarDriver(
            node_front, self.scenario, "front", self.topic_front,
            period=cfg.period, fault_fn=cfg.fault_front,
        )
        self.lidar_rear = LidarDriver(
            node_rear, self.scenario, "rear", self.topic_rear,
            period=cfg.period, fault_fn=cfg.fault_rear,
        )
        self.fusion = FusionService(
            self.node_fusion, self.topic_front, self.topic_rear, self.topic_fused,
            fuse_model=AffineModel(
                cfg.fusion_base_ns, cfg.fusion_per_point_ns, cfg.compute_noise
            ),
        )
        self.classifier = RayGroundClassifier(
            self.node_classifier, self.topic_fused, self.topic_ground,
            self.topic_nonground,
            classify_model=AffineModel(
                cfg.classify_base_ns, cfg.classify_per_point_ns, cfg.compute_noise
            ),
            sensor_height=cfg.scenario.sensor_height_m,
        )
        self.detector = EuclideanClusterDetector(
            self.node_detector, self.topic_nonground, self.topic_objects,
            cluster_model=AffineModel(
                cfg.cluster_base_ns, cfg.cluster_per_point_ns, cfg.compute_noise
            ),
        )
        self.sink = SinkService(
            self.node_rviz, [self.topic_objects, self.topic_ground]
        )

    def _build_segments(self) -> None:
        cfg = self.config
        d = cfg.d_mon
        self.segments: Dict[str, Segment] = {
            "s0_front": remote_segment(
                "s0_front", "points_front", "lidar_front", "ecu1",
                src_process="driver", dst_process="fusion",
                d_mon=d["s0_front"], d_ex=cfg.d_ex,
            ),
            "s0_rear": remote_segment(
                "s0_rear", "points_rear", "lidar_rear", "ecu1",
                src_process="driver", dst_process="fusion",
                d_mon=d["s0_rear"], d_ex=cfg.d_ex,
            ),
            "s1_front": local_segment(
                "s1_front", "ecu1", "points_front", "points_fused",
                start_process="fusion", end_process="fusion",
                d_mon=d["s1_front"], d_ex=cfg.d_ex,
            ),
            "s1_rear": local_segment(
                "s1_rear", "ecu1", "points_rear", "points_fused",
                start_process="fusion", end_process="fusion",
                d_mon=d["s1_rear"], d_ex=cfg.d_ex,
            ),
            "s2": remote_segment(
                "s2", "points_fused", "ecu1", "ecu2",
                src_process="fusion", dst_process="classifier",
                d_mon=d["s2"], d_ex=cfg.d_ex,
            ),
            "s3_objects": local_segment(
                "s3_objects", "ecu2", "points_fused", "objects",
                start_process="classifier", end_process="rviz",
                end_kind=EventKind.RECEIVE,
                d_mon=d["s3_objects"], d_ex=cfg.d_ex,
            ),
            "s3_ground": local_segment(
                "s3_ground", "ecu2", "points_fused", "ground_points",
                start_process="classifier", end_process="rviz",
                end_kind=EventKind.RECEIVE,
                d_mon=d["s3_ground"], d_ex=cfg.d_ex,
            ),
        }

    def _build_chains(self) -> None:
        cfg = self.config
        s = self.segments

        def chain(name, first, second, last):
            return EventChain(
                name=name,
                segments=[s[first], s[second], s["s2"], s[last]],
                period=cfg.period,
                budget_e2e=cfg.budget_e2e,
                budget_seg=cfg.period,
                mk=cfg.mk,
            )

        self.chains: Dict[str, EventChain] = {
            "front_objects": chain("front_objects", "s0_front", "s1_front", "s3_objects"),
            "front_ground": chain("front_ground", "s0_front", "s1_front", "s3_ground"),
            "rear_objects": chain("rear_objects", "s0_rear", "s1_rear", "s3_objects"),
            "rear_ground": chain("rear_ground", "s0_rear", "s1_rear", "s3_ground"),
        }
        if cfg.monitoring:
            # Fail at load time on an infeasible scenario-configured
            # d_mon assignment (Eqs. 2-4) instead of monitoring with
            # deadlines no schedulable system could meet.
            from repro.budgeting.feasibility import validate_chain_budgets

            for event_chain in self.chains.values():
                validate_chain_budgets(event_chain)
        self.chain_runtimes: Dict[str, ChainRuntime] = {
            name: ChainRuntime(chain) for name, chain in self.chains.items()
        }

    def _default_handlers(self) -> Dict[str, ExceptionHandler]:
        def front_only_fusion(context):
            # Paper Fig. 3: publish the fused cloud with the data that IS
            # present (the other lidar's sweep), instead of nothing.
            cloud = context.start_data
            if cloud is None:
                cloud = context.last_good_data
            if cloud is None:
                return None
            return PointCloud(
                points=cloud.points,
                frame_index=cloud.frame_index,
                stamp=cloud.stamp,
                frame_id="partial_fusion",
            )

        return {
            "s0_front": PropagateAlways(),
            "s0_rear": PropagateAlways(),
            "s1_front": RecoverAlways(front_only_fusion),
            "s1_rear": RecoverAlways(front_only_fusion),
            "s2": PropagateAlways(),
            "s3_objects": PropagateAlways(),
            "s3_ground": PropagateAlways(),
        }

    def _build_monitors(self) -> None:
        cfg = self.config
        handlers = self._default_handlers()
        handlers.update(cfg.handlers)
        self.monitor_ecu1 = MonitorThread(
            self.ecu1, priority=cfg.monitor_priority
        )
        self.monitor_ecu2 = MonitorThread(
            self.ecu2, priority=cfg.monitor_priority
        )

        # Local segments.  s1_front and s1_rear share the fused publisher
        # as their end event -> one shared skip gate.
        fusion_gate = SkipGate(activation_fn=activation_of)
        self.local_runtimes: Dict[str, LocalSegmentRuntime] = {}
        self._extra_monitors: List[MonitorThread] = []

        def add_local(name, monitor, start_reader, end_writer=None,
                      end_reader=None, gate=None):
            if cfg.monitor_thread_per_segment:
                # Ablation: a dedicated monitor thread per segment
                # removes the fixed-processing-order skew of Fig. 10.
                monitor = MonitorThread(
                    monitor.ecu,
                    name=f"monitor-{name}",
                    priority=cfg.monitor_priority,
                )
                self._extra_monitors.append(monitor)
            runtime = LocalSegmentRuntime(
                self.segments[name],
                handler=handlers[name],
                mk=cfg.mk,
                activation_fn=activation_of,
                skip_gate=gate,
            )
            monitor.add_segment(runtime)
            runtime.attach_start(start_reader)
            if end_writer is not None:
                runtime.attach_end_writer(end_writer)
            if end_reader is not None:
                runtime.attach_end_reader(end_reader)
            self.local_runtimes[name] = runtime
            return runtime

        rt_s1_front = add_local(
            "s1_front", self.monitor_ecu1,
            self.fusion.sub_front.reader, end_writer=self.fusion.publisher.writer,
            gate=fusion_gate,
        )
        rt_s1_rear = add_local(
            "s1_rear", self.monitor_ecu1,
            self.fusion.sub_rear.reader, end_writer=self.fusion.publisher.writer,
            gate=fusion_gate,
        )
        # Fixed processing order on ECU2: objects first, then ground
        # (the skew the paper's Fig. 10 reports).
        rt_s3_objects = add_local(
            "s3_objects", self.monitor_ecu2,
            self.classifier.subscription.reader,
            end_reader=self.sink.subscriptions[0].reader,
        )
        rt_s3_ground = add_local(
            "s3_ground", self.monitor_ecu2,
            self.classifier.subscription.reader,
            end_reader=self.sink.subscriptions[1].reader,
        )

        # Remote segments.
        self.remote_monitors: Dict[str, SyncRemoteMonitor] = {}

        def add_remote(name, reader, monitor_thread, next_local):
            monitor = SyncRemoteMonitor(
                self.segments[name],
                reader,
                period=cfg.period,
                handler=handlers[name],
                mk=cfg.mk,
                context=cfg.remote_context,
                monitor_thread=monitor_thread,
                next_local=next_local,
                activation_fn=activation_of,
            )
            self.remote_monitors[name] = monitor
            return monitor

        add_remote("s0_front", self.fusion.sub_front.reader,
                   self.monitor_ecu1, [rt_s1_front])
        add_remote("s0_rear", self.fusion.sub_rear.reader,
                   self.monitor_ecu1, [rt_s1_rear])
        add_remote("s2", self.classifier.subscription.reader,
                   self.monitor_ecu2, [rt_s3_objects, rt_s3_ground])

        # Chain reporting: a shared segment reports to every chain it
        # belongs to, in chain order.
        for chain_name, chain in self.chains.items():
            for segment in chain.segments:
                source = (self.local_runtimes.get(segment.name)
                          or self.remote_monitors[segment.name])
                source.reporters.append(self.chain_runtimes[chain_name])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, n_frames: int, settle: Optional[int] = None) -> None:
        """Drive the stack for *n_frames* lidar periods.

        Starts PTP and both lidars, runs the simulation long enough for
        the last frame to clear the pipeline, then stops the sources and
        disarms remote monitors.
        """
        cfg = self.config
        self.ptp.start()
        if self.bg_traffic is not None:
            self.bg_traffic.start()
        self.lidar_front.start()
        self.lidar_rear.start()
        horizon = (n_frames - 1) * cfg.period + (settle or 3 * cfg.period)
        stop_at = (n_frames - 1) * cfg.period + 1
        self.sim.schedule_at(stop_at, self.lidar_front.stop)
        self.sim.schedule_at(stop_at, self.lidar_rear.stop)
        # Disarm each remote monitor after the last real frame's deadline
        # has passed but before the (artifact) deadline of the never-sent
        # next frame would fire.
        for monitor in getattr(self, "remote_monitors", {}).values():
            disarm_at = stop_at + monitor.segment.d_mon + cfg.period // 2
            self.sim.schedule_at(disarm_at, monitor.stop)
        self.sim.run(until=horizon)
        for monitor in getattr(self, "remote_monitors", {}).values():
            monitor.stop()
        if self.bg_traffic is not None:
            self.bg_traffic.stop()
        self.ptp.stop()

    # ------------------------------------------------------------------
    # Results access
    # ------------------------------------------------------------------
    def monitored_latencies(self, segment_name: str) -> List[int]:
        """Latency series recorded by the segment's monitor."""
        if segment_name in self.local_runtimes:
            return [lat for _n, lat, _o in self.local_runtimes[segment_name].latencies]
        if segment_name in self.remote_monitors:
            return [lat for _n, lat, _o in self.remote_monitors[segment_name].latencies]
        raise KeyError(f"no monitor for segment {segment_name}")

    def traced_latencies(self, segment_name: str) -> List[int]:
        """Latency series reconstructed from the communication trace
        (the measurement path used for unmonitored runs)."""
        from repro.tracing.analysis import segment_latencies_from_trace

        return segment_latencies_from_trace(self.tracer, self.segments[segment_name])

    def exception_records(self, segment_name: str):
        """TemporalExceptions raised for one segment."""
        if segment_name in self.local_runtimes:
            return list(self.local_runtimes[segment_name].exceptions)
        if segment_name in self.remote_monitors:
            return list(self.remote_monitors[segment_name].exceptions)
        return []
