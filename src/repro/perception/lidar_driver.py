"""Lidar driver services: the chain's periodic sources.

Each driver runs on its own small sensor ECU (the paper's lidars are
networked sensors feeding ECU1), synthesizes a sweep from the shared
driving scenario every period, and publishes it.  Fault injection hooks
allow experiments to delay or drop individual frames (the paper's
Fig. 3 error case).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dds.topic import Topic
from repro.perception.pointcloud import PointCloud
from repro.perception.scenario import DrivingScenario
from repro.ros.node import Node
from repro.sim.threads import Compute
from repro.sim.workload import AffineModel

#: Injected fault for one frame: extra delay in ns (0 = none) or None to
#: drop the frame entirely.
FaultFn = Callable[[int], Optional[int]]

#: Payload fault: maps (frame, captured cloud) to the cloud actually
#: published -- e.g. a stuck sensor re-emitting its previous sweep.
TransformFn = Callable[[int, PointCloud], PointCloud]

#: CPU cost of assembling a sweep (driver-side).
CAPTURE_MODEL = AffineModel(base_ns=200_000, per_item_ns=20, noise=0.1)


def pointcloud_topic(name: str) -> Topic:
    """A topic sized by the actual point-cloud payload."""
    return Topic(name, type_name="PointCloud2", size_fn=lambda pc: pc.nbytes)


class LidarDriver:
    """Periodic point-cloud source for one lidar mount.

    Parameters
    ----------
    node:
        Hosting node (on the sensor ECU).
    scenario:
        Shared world model (both lidars must use the same instance).
    mount:
        ``"front"`` or ``"rear"``.
    topic:
        Output topic.
    period:
        Publication period in ns.
    fault_fn:
        Optional per-frame fault injection (delay ns / None to drop).

    ``transform_fn`` (None until a fault injector sets it) is a payload
    fault applied to the captured cloud just before publication (timing
    is unaffected).
    """

    def __init__(
        self,
        node: Node,
        scenario: DrivingScenario,
        mount: str,
        topic: Topic,
        period: int,
        fault_fn: Optional[FaultFn] = None,
    ):
        self.node = node
        self.scenario = scenario
        self.mount = mount
        self.period = period
        self.fault_fn = fault_fn
        self.transform_fn: Optional[TransformFn] = None
        self.publisher = node.create_publisher(topic)
        self.frames_published = 0
        self.frames_dropped = 0
        self._timer = node.create_timer(period, self._on_timer)

    def start(self) -> None:
        """Begin periodic publication."""
        self._timer.start()

    def stop(self) -> None:
        """Stop publishing."""
        self._timer.stop()

    def _on_timer(self, frame: int):
        sim = self.node.ecu.sim
        delay = 0
        if self.fault_fn is not None:
            fault = self.fault_fn(frame)
            if fault is None:
                self.frames_dropped += 1
                sim.emit_trace("lidar.dropped", mount=self.mount, frame=frame)
                return
            delay = fault
        cloud = self.scenario.lidar_frame(
            frame, self.mount, stamp=self.node.ecu.now()
        )
        work = CAPTURE_MODEL.sample(
            sim.rng(f"lidar:{self.mount}"), size=len(cloud)
        )
        yield Compute(work + delay)
        if self.transform_fn is not None:
            cloud = self.transform_fn(frame, cloud)
        self.publisher.publish(cloud)
        self.frames_published += 1
