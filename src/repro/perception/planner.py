"""The chain sink: rviz2 standing in for the trajectory planner.

The paper replaced the (unavailable) planning service with rviz2, which
subscribes to the objects and ground-points topics but publishes
nothing -- making the final monitored segments end at *receive* events.
This sink records arrival times per frame and spends a small rendering
cost; experiments read its log for end-to-end accounting.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dds.topic import Topic
from repro.ros.node import Node
from repro.sim.threads import Compute

#: CPU cost of rendering one received sample, ns.
RENDER_NS = 300_000


class SinkService:
    """Terminal consumer of one or more topics."""

    def __init__(self, node: Node, topics: List[Topic]):
        self.node = node
        #: topic name -> list of (frame_index, local arrival time, recovered)
        self.arrivals: Dict[str, List[Tuple[int, int, bool]]] = {
            topic.name: [] for topic in topics
        }
        self.subscriptions = [
            node.create_subscription(topic, self._make_callback(topic.name))
            for topic in topics
        ]

    def _make_callback(self, topic_name: str):
        def callback(sample):
            frame = getattr(sample.data, "frame_index", sample.sequence_number)
            self.arrivals[topic_name].append(
                (frame, self.node.ecu.now(), sample.recovered)
            )
            yield Compute(RENDER_NS)

        return callback

    def frames_seen(self, topic_name: str) -> List[int]:
        """Frame indices received on *topic_name*, in arrival order."""
        return [frame for frame, _t, _r in self.arrivals[topic_name]]
