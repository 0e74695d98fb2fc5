"""Point-cloud fusion: joins front and rear sweeps by frame.

The paper's fusion service on ECU1 "joins the data (based on their
timestamps) and publishes a DDS topic comprising a point cloud".  We
join by frame index (carried in the cloud header); a frame is published
once both sides arrived.  The paper's recovery example -- publishing a
front-only cloud when the rear lidar runs late -- is performed by the
*monitor's* exception handler, not here; the service itself simply waits
for both inputs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dds.topic import Topic
from repro.perception.pointcloud import PointCloud
from repro.ros.node import Node
from repro.sim.threads import Compute
from repro.sim.workload import AffineModel, ExecutionTimeModel


class FusionService:
    """Dual-input fusion node.

    Parameters
    ----------
    node:
        Hosting node (ECU1 in the paper's setup).
    topic_front, topic_rear, topic_out:
        Input and output topics.
    fuse_model:
        CPU cost of the join, parameterized by total point count.
    max_pending:
        Frames to keep waiting for their partner before being evicted
        (prevents unbounded backlog when one side stalls for long).
    """

    def __init__(
        self,
        node: Node,
        topic_front: Topic,
        topic_rear: Topic,
        topic_out: Topic,
        fuse_model: Optional[ExecutionTimeModel] = None,
        max_pending: int = 16,
    ):
        self.node = node
        self.fuse_model = fuse_model or AffineModel(
            base_ns=500_000, per_item_ns=60, noise=0.15
        )
        self.max_pending = max_pending
        self.publisher = node.create_publisher(topic_out)
        self._pending_front: Dict[int, PointCloud] = {}
        self._pending_rear: Dict[int, PointCloud] = {}
        #: Span contexts of waiting frames (span tracing only): the
        #: fusing callback links the partner's causal history so both
        #: chains can walk their own critical path through the join.
        self._ctx_front: Dict[int, object] = {}
        self._ctx_rear: Dict[int, object] = {}
        self.fused_count = 0
        self.evicted_count = 0
        self.sub_front = node.create_subscription(topic_front, self._on_front)
        self.sub_rear = node.create_subscription(topic_rear, self._on_rear)

    def _on_front(self, sample):
        return self._on_cloud(sample.data, self._pending_front, self._pending_rear,
                              self._ctx_front, self._ctx_rear)

    def _on_rear(self, sample):
        return self._on_cloud(sample.data, self._pending_rear, self._pending_front,
                              self._ctx_rear, self._ctx_front)

    def _on_cloud(self, cloud: PointCloud, mine: Dict[int, PointCloud],
                  other: Dict[int, PointCloud],
                  mine_ctx: Dict[int, object], other_ctx: Dict[int, object]):
        spans = self.node.ecu.sim.spans
        partner = other.pop(cloud.frame_index, None)
        if partner is None:
            mine[cloud.frame_index] = cloud
            if spans is not None:
                mine_ctx[cloud.frame_index] = spans.current
            self._evict(mine, mine_ctx)
            return None
        if spans is not None:
            # Causal join: this callback's span gets a link to the
            # earlier arrival's callback span (the waiting branch).
            spans.link_current(other_ctx.pop(cloud.frame_index, None))
        fused = cloud.concatenate(partner)
        work = self.fuse_model.sample(
            self.node.ecu.sim.rng("fusion"), size=len(fused)
        )
        return self._fuse_and_publish(fused, work)

    def _fuse_and_publish(self, fused: PointCloud, work: int):
        yield Compute(work)
        self.publisher.publish(fused)
        self.fused_count += 1

    def _evict(self, pending: Dict[int, PointCloud],
               ctxs: Optional[Dict[int, object]] = None) -> None:
        while len(pending) > self.max_pending:
            oldest = min(pending)
            del pending[oldest]
            if ctxs is not None:
                ctxs.pop(oldest, None)
            self.evicted_count += 1
