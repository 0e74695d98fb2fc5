"""The injector catalogue: network, clock, compute and sensor faults.

Fault windows are specified in *chain activations* (frame indices) and
converted to simulation time with the stack's period, so a scenario
reads like its ground truth: "the inter-ECU link is dead for frames
12..22".

Targets are named by their attribute on the stack:

- links: ``"link_front"``, ``"link_rear"``, ``"link_12"``
- ECUs: ``"ecu1"``, ``"ecu2"``, ``"lidar_front"``, ``"lidar_rear"``
- nodes: ``"fusion"``, ``"classifier"``, ``"object_detection"``, ``"rviz"``
- lidar mounts: ``"front"``, ``"rear"``
"""

from __future__ import annotations

from typing import List, Optional

from repro.faults.base import FaultInjector, frame_window_ns
from repro.network.injection import Injection
from repro.sim.threads import Compute

#: Node name -> stack attribute.
_NODE_ATTRS = {
    "fusion": "node_fusion",
    "classifier": "node_classifier",
    "object_detection": "node_detector",
    "rviz": "node_rviz",
}


def _resolve_link(stack, link_attr: str):
    link = getattr(stack, link_attr, None)
    if link is None:
        raise ValueError(f"stack has no link {link_attr!r}")
    return link


def _resolve_ecu(stack, ecu_name: str):
    for ecu in stack.ecus:
        if ecu.name == ecu_name:
            return ecu
    raise ValueError(f"stack has no ECU named {ecu_name!r}")


def _resolve_node(stack, node_name: str):
    attr = _NODE_ATTRS.get(node_name)
    if attr is None:
        raise ValueError(f"unknown node {node_name!r}")
    return getattr(stack, attr)


def _resolve_lidar(stack, mount: str):
    if mount == "front":
        return stack.lidar_front
    if mount == "rear":
        return stack.lidar_rear
    raise ValueError(f"unknown lidar mount {mount!r}")


# ----------------------------------------------------------------------
# Network faults
# ----------------------------------------------------------------------
class LossBurst(FaultInjector):
    """Drop every frame on one link during an activation window.

    Installed as a ``loss_filter`` (chaining any existing one), so the
    link's loss counters and ``on_loss`` hook still fire -- the physical
    drop is observable to ground truth but not to the receiver.
    """

    kind = "loss_burst"

    def __init__(self, link_attr: str, first_frame: int, last_frame: int):
        super().__init__(name=f"loss_burst:{link_attr}")
        self.link_attr = link_attr
        self.first_frame = first_frame
        self.last_frame = last_frame
        self.dropped = 0

    def _arm(self, stack) -> None:
        link = _resolve_link(stack, self.link_attr)
        sim = stack.sim
        start, end = frame_window_ns(stack, self.first_frame, self.last_frame)
        inner = link.loss_filter

        def burst_filter(frame) -> bool:
            if start <= sim.now < end:
                self.dropped += 1
                return True
            return inner(frame) if inner is not None else False

        link.loss_filter = burst_filter
        self.record(Injection(
            kind=self.kind, target=self.link_attr, start_ns=start, end_ns=end,
            frames=range(self.first_frame, self.last_frame + 1),
        ))


class LatencySpike(FaultInjector):
    """Add a fixed extra latency to one link during a window.

    Mutates the :class:`~repro.network.link.Link`'s ``base_latency`` on
    the simulation clock.
    """

    kind = "latency_spike"

    def __init__(self, link_attr: str, first_frame: int, last_frame: int,
                 extra_ns: int):
        super().__init__(name=f"latency_spike:{link_attr}")
        if extra_ns <= 0:
            raise ValueError("extra_ns must be positive")
        self.link_attr = link_attr
        self.first_frame = first_frame
        self.last_frame = last_frame
        self.extra_ns = int(extra_ns)

    def _arm(self, stack) -> None:
        link = _resolve_link(stack, self.link_attr)
        if not hasattr(link, "base_latency"):
            raise ValueError(
                f"{self.link_attr} has no base_latency; "
                "latency spikes need a point-to-point Link"
            )
        start, end = frame_window_ns(stack, self.first_frame, self.last_frame)

        def spike_on():
            link.base_latency += self.extra_ns

        def spike_off():
            link.base_latency -= self.extra_ns

        stack.sim.schedule_at(start, spike_on, label=f"{self.name}:on")
        stack.sim.schedule_at(end, spike_off, label=f"{self.name}:off")
        self.record(Injection(
            kind=self.kind, target=self.link_attr, start_ns=start, end_ns=end,
            frames=range(self.first_frame, self.last_frame + 1),
            detail={"extra_ns": self.extra_ns},
        ))


class LinkPartition(FaultInjector):
    """Total blackout of several links at once (a partitioned segment)."""

    kind = "partition"

    def __init__(self, link_attrs: List[str], first_frame: int, last_frame: int):
        super().__init__(name=f"partition:{'+'.join(link_attrs)}")
        self.bursts = [
            LossBurst(attr, first_frame, last_frame) for attr in link_attrs
        ]

    def _arm(self, stack) -> None:
        for burst in self.bursts:
            burst.kind = self.kind
            burst.arm(stack)
            self.injections.extend(burst.injections)

    @property
    def dropped(self) -> int:
        """Total frames dropped across the partitioned links."""
        return sum(burst.dropped for burst in self.bursts)


# ----------------------------------------------------------------------
# Clock faults
# ----------------------------------------------------------------------
def _rebase(clock) -> None:
    # Snap offset0 to the instantaneous offset before changing the drift
    # rate, so the change never retroactively steps the clock reading.
    clock.correct(clock.offset)


class ClockDrift(FaultInjector):
    """Ramp one ECU's clock at an abnormal drift rate for a window."""

    kind = "clock_drift"

    def __init__(self, ecu_name: str, first_frame: int, last_frame: int,
                 drift_ppm: float):
        super().__init__(name=f"clock_drift:{ecu_name}")
        self.ecu_name = ecu_name
        self.first_frame = first_frame
        self.last_frame = last_frame
        self.drift_ppm = float(drift_ppm)
        self._bound = 0

    def _arm(self, stack) -> None:
        clock = _resolve_ecu(stack, self.ecu_name).clock
        start, end = frame_window_ns(stack, self.first_frame, self.last_frame)
        original = clock.drift_ppm

        def drift_on():
            _rebase(clock)
            clock.drift_ppm = self.drift_ppm

        def drift_off():
            _rebase(clock)
            clock.drift_ppm = original

        stack.sim.schedule_at(start, drift_on, label=f"{self.name}:on")
        stack.sim.schedule_at(end, drift_off, label=f"{self.name}:off")
        # Worst desync: the abnormal rate runs uncorrected for the whole
        # window (PTP may be in holdover concurrently, so do not assume
        # the sync period caps the accumulation).
        self._bound = stack.ptp.residual_error + int(
            abs(self.drift_ppm - original) * 1e-6 * (end - start)
        )
        self.record(Injection(
            kind=self.kind, target=self.ecu_name, start_ns=start, end_ns=end,
            frames=range(self.first_frame, self.last_frame + 1),
            detail={"drift_ppm": self.drift_ppm},
        ))

    def clock_error_bound(self) -> int:
        return self._bound


class ClockStep(FaultInjector):
    """Step one ECU's clock by a fixed amount at one instant."""

    kind = "clock_step"

    def __init__(self, ecu_name: str, at_frame: int, step_ns: int):
        super().__init__(name=f"clock_step:{ecu_name}")
        self.ecu_name = ecu_name
        self.at_frame = at_frame
        self.step_ns = int(step_ns)

    def _arm(self, stack) -> None:
        clock = _resolve_ecu(stack, self.ecu_name).clock
        at = self.at_frame * stack.config.period

        def step():
            clock.correct(clock.offset + self.step_ns)

        stack.sim.schedule_at(at, step, label=f"{self.name}")
        self.record(Injection(
            kind=self.kind, target=self.ecu_name, start_ns=at, end_ns=at,
            frames=range(self.at_frame, self.at_frame + 1),
            detail={"step_ns": self.step_ns},
        ))

    def clock_error_bound(self) -> int:
        return abs(self.step_ns)


class PtpHoldover(FaultInjector):
    """Stop PTP sync rounds for a window (free-running clocks)."""

    kind = "ptp_holdover"

    def __init__(self, first_frame: int, last_frame: int):
        super().__init__(name="ptp_holdover")
        self.first_frame = first_frame
        self.last_frame = last_frame
        self._bound = 0

    def _arm(self, stack) -> None:
        start, end = frame_window_ns(stack, self.first_frame, self.last_frame)
        stack.sim.schedule_at(start, stack.ptp.stop, label=f"{self.name}:stop")
        stack.sim.schedule_at(end, stack.ptp.start, label=f"{self.name}:start")
        max_drift = max(
            (abs(c.drift_ppm) for c in stack.ptp.slaves), default=0.0
        )
        self._bound = stack.ptp.residual_error + int(
            max_drift * 1e-6 * (end - start)
        )
        self.record(Injection(
            kind=self.kind, target="ptp", start_ns=start, end_ns=end,
            frames=range(self.first_frame, self.last_frame + 1),
        ))

    def clock_error_bound(self) -> int:
        return self._bound


# ----------------------------------------------------------------------
# Compute faults
# ----------------------------------------------------------------------
class CpuOverload(FaultInjector):
    """Saturate an ECU's cores with mid-priority hog threads.

    The hogs run above the application processes but below ksoftirq and
    the monitor thread, matching an interference task gone rogue: chain
    callbacks stall while arrivals and timeouts keep being serviced.
    """

    kind = "cpu_overload"
    #: One hog per core of the ECU, at this priority.
    PRIORITY = 70
    #: Work per hog ``Compute`` before the hog re-checks the window end.
    SLICE_NS = 1_000_000

    def __init__(self, ecu_name: str, first_frame: int, last_frame: int):
        super().__init__(name=f"cpu_overload:{ecu_name}")
        self.ecu_name = ecu_name
        self.first_frame = first_frame
        self.last_frame = last_frame

    def _arm(self, stack) -> None:
        ecu = _resolve_ecu(stack, self.ecu_name)
        sim = stack.sim
        start, end = frame_window_ns(stack, self.first_frame, self.last_frame)
        n_threads = len(ecu.scheduler.cores)

        def hog_body(_thread):
            while sim.now < end:
                yield Compute(min(self.SLICE_NS, end - sim.now))

        def spawn_hogs():
            for i in range(n_threads):
                ecu.spawn(
                    f"{self.name}:hog{i}", hog_body, priority=self.PRIORITY
                )

        sim.schedule_at(start, spawn_hogs, label=f"{self.name}:spawn")
        self.record(Injection(
            kind=self.kind, target=self.ecu_name, start_ns=start, end_ns=end,
            frames=range(self.first_frame, self.last_frame + 1),
            detail={"priority": self.PRIORITY, "n_threads": n_threads},
        ))


class ExecutorStall(FaultInjector):
    """Block one node's single-threaded executor with a long callback.

    Models a runaway application callback: everything queued behind it
    -- subscription deliveries, timers -- waits the full stall.
    """

    kind = "executor_stall"

    def __init__(self, node_name: str, at_frame: int, stall_ns: int):
        super().__init__(name=f"executor_stall:{node_name}")
        self.node_name = node_name
        self.at_frame = at_frame
        self.stall_ns = int(stall_ns)

    def _arm(self, stack) -> None:
        node = _resolve_node(stack, self.node_name)
        at = self.at_frame * stack.config.period

        def stalled_callback():
            yield Compute(self.stall_ns)

        stack.sim.schedule_at(
            at,
            lambda: node.executor.enqueue(stalled_callback),
            label=f"{self.name}",
        )
        self.record(Injection(
            kind=self.kind, target=self.node_name, start_ns=at,
            end_ns=at + self.stall_ns,
            frames=range(self.at_frame, self.at_frame + 1),
            detail={"stall_ns": self.stall_ns},
        ))


# ----------------------------------------------------------------------
# Sensor / application faults
# ----------------------------------------------------------------------
class SilentSensor(FaultInjector):
    """A lidar that publishes nothing for a window of frames.

    ``first_frame = 0`` models the paper-motivating cold-start gap: a
    sensor dead from boot never produces the first sample that would arm
    the remote monitor's timeout, so detection needs the watchdog.
    """

    kind = "silent_sensor"

    def __init__(self, mount: str, first_frame: int, last_frame: int):
        super().__init__(name=f"silent_sensor:{mount}")
        self.mount = mount
        self.first_frame = first_frame
        self.last_frame = last_frame
        self.suppressed: List[int] = []

    def _arm(self, stack) -> None:
        lidar = _resolve_lidar(stack, self.mount)
        inner = lidar.fault_fn

        def silent_fault(frame: int) -> Optional[int]:
            if self.first_frame <= frame <= self.last_frame:
                self.suppressed.append(frame)
                return None
            return inner(frame) if inner is not None else 0

        lidar.fault_fn = silent_fault
        start, end = frame_window_ns(stack, self.first_frame, self.last_frame)
        self.record(Injection(
            kind=self.kind, target=self.mount, start_ns=start, end_ns=end,
            frames=range(self.first_frame, self.last_frame + 1),
        ))


class StuckSensor(FaultInjector):
    """A lidar frozen on its last sweep: publishes on time, stale data.

    The republished cloud keeps its *old* frame index, so downstream
    monitors see no fresh activation -- the same observable signature as
    silence at the activation level, while bytes keep flowing (the
    classic "stuck sensor passes liveliness checks" failure).
    """

    kind = "sensor_stuck"

    def __init__(self, mount: str, first_frame: int, last_frame: int):
        super().__init__(name=f"sensor_stuck:{mount}")
        self.mount = mount
        self.first_frame = first_frame
        self.last_frame = last_frame
        self.held_frames: List[int] = []

    def _arm(self, stack) -> None:
        lidar = _resolve_lidar(stack, self.mount)
        inner = lidar.transform_fn
        state = {"held": None}

        def stuck_transform(frame: int, cloud):
            if inner is not None:
                cloud = inner(frame, cloud)
            if self.first_frame <= frame <= self.last_frame:
                if state["held"] is not None:
                    self.held_frames.append(frame)
                    return state["held"]
                return cloud  # stuck from frame 0: nothing held yet
            state["held"] = cloud
            return cloud

        lidar.transform_fn = stuck_transform
        start, end = frame_window_ns(stack, self.first_frame, self.last_frame)
        self.record(Injection(
            kind=self.kind, target=self.mount, start_ns=start, end_ns=end,
            frames=range(self.first_frame, self.last_frame + 1),
        ))
