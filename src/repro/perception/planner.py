"""The chain sink: rviz2 standing in for the trajectory planner.

The paper replaced the (unavailable) planning service with rviz2, which
subscribes to the objects and ground-points topics but publishes
nothing -- making the final monitored segments end at *receive* events.
This sink records arrival times per frame and spends a small rendering
cost; experiments read its log for end-to-end accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dds.qos import QosProfile
from repro.dds.topic import Topic
from repro.ros.node import Node
from repro.sim.threads import Compute
from repro.sim.workload import ConstantModel, ExecutionTimeModel


class SinkService:
    """Terminal consumer of one or more topics."""

    def __init__(
        self,
        node: Node,
        topics: List[Topic],
        qos: Optional[QosProfile] = None,
        render_model: Optional[ExecutionTimeModel] = None,
    ):
        self.node = node
        self.render_model = render_model or ConstantModel(300_000)
        #: topic name -> list of (frame_index, local arrival time, recovered)
        self.arrivals: Dict[str, List[Tuple[int, int, bool]]] = {
            topic.name: [] for topic in topics
        }
        self.subscriptions = [
            node.create_subscription(
                topic, self._make_callback(topic.name), qos=qos
            )
            for topic in topics
        ]

    def _make_callback(self, topic_name: str):
        def callback(sample):
            frame = getattr(sample.data, "frame_index", sample.sequence_number)
            self.arrivals[topic_name].append(
                (frame, self.node.ecu.now(), sample.recovered)
            )
            work = self.render_model.sample(self.node.ecu.sim.rng("sink"))
            if work > 0:
                yield Compute(work)

        return callback

    def frames_seen(self, topic_name: str) -> List[int]:
        """Frame indices received on *topic_name*, in arrival order."""
        return [frame for frame, _t, _r in self.arrivals[topic_name]]
