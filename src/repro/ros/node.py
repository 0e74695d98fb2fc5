"""ROS2-like nodes: publishers, subscriptions and timers.

A :class:`Node` is one process: it owns a DDS participant (middleware
event thread) and a single-threaded executor (application thread).  The
paper's services ("blue boxes" in its Fig. 1) map one-to-one onto nodes.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.dds.domain import DdsDomain
from repro.dds.qos import QosProfile
from repro.dds.reader import DataReader, ReaderListener
from repro.dds.topic import Sample, Topic
from repro.dds.writer import DataWriter
from repro.ros.executor import SingleThreadedExecutor
from repro.sim.cpu import Ecu
from repro.sim.timers import PeriodicTimer


class Publisher:
    """Thin wrapper over a DDS writer (``node.create_publisher``)."""

    def __init__(self, node: "Node", writer: DataWriter):
        self.node = node
        self.writer = writer

    def publish(
        self,
        data: Any,
        source_timestamp: Optional[int] = None,
        recovered: bool = False,
    ) -> Optional[Sample]:
        """Publish *data*; returns the sample or None if suppressed."""
        return self.writer.write(
            data, source_timestamp=source_timestamp, recovered=recovered
        )


class _SubscriptionListener(ReaderListener):
    """Bridges DDS delivery into the node's executor queue."""

    def __init__(self, subscription: "Subscription"):
        self.subscription = subscription

    def on_data_available(self, reader: DataReader, sample: Sample) -> None:
        self.subscription.node.executor.enqueue(
            self.subscription.callback, sample
        )


class Subscription:
    """A topic subscription dispatching *callback(sample)* on the executor.

    The callback receives the full :class:`~repro.dds.topic.Sample` (data
    plus source timestamp) and may be a generator yielding ``Compute``.
    """

    def __init__(
        self,
        node: "Node",
        topic: Topic,
        callback: Callable[[Sample], Any],
        qos: Optional[QosProfile] = None,
    ):
        self.node = node
        self.callback = callback
        self.reader: DataReader = node.participant.create_reader(
            topic, qos=qos, listener=_SubscriptionListener(self)
        )


class RosTimer:
    """A periodic timer whose callback runs on the node's executor."""

    def __init__(
        self,
        node: "Node",
        period: int,
        callback: Callable[[int], Any],
        jitter_ns: int = 0,
    ):
        self.node = node
        self.callback = callback
        self._timer = PeriodicTimer(
            node.ecu.sim,
            period,
            self._fire,
            name=f"{node.name}.timer",
            jitter_ns=jitter_ns,
        )

    def start(self) -> None:
        """Start firing periodically."""
        self._timer.start()

    def stop(self) -> None:
        """Stop firing."""
        self._timer.stop()

    def _fire(self, index: int) -> None:
        self.node.executor.enqueue(self.callback, index)


class Node:
    """One ROS2-like process: participant + single-threaded executor.

    Parameters
    ----------
    domain:
        DDS domain the node joins.
    ecu:
        Hosting ECU.
    name:
        Node (process) name.
    priority:
        Executor thread priority (the process's RT priority).
    middleware_priority:
        Priority of the node's DDS event thread (defaults to the
        executor priority; the paper keeps middleware timers *below*
        the monitor priority).
    """

    def __init__(
        self,
        domain: DdsDomain,
        ecu: Ecu,
        name: str,
        priority: int = 10,
        middleware_priority: Optional[int] = None,
    ):
        self.domain = domain
        self.ecu = ecu
        self.name = name
        self.priority = priority
        if middleware_priority is None:
            middleware_priority = priority
        self.participant = domain.create_participant(
            ecu, name, middleware_priority=middleware_priority
        )
        self.executor = SingleThreadedExecutor(ecu, f"{ecu.name}.{name}", priority)
        self.publishers: List[Publisher] = []
        self.subscriptions: List[Subscription] = []
        self.timers: List[RosTimer] = []

    def create_publisher(
        self, topic: Topic, qos: Optional[QosProfile] = None
    ) -> Publisher:
        """Create a publisher on *topic*."""
        publisher = Publisher(self, self.participant.create_writer(topic, qos=qos))
        self.publishers.append(publisher)
        return publisher

    def create_subscription(
        self,
        topic: Topic,
        callback: Callable[[Sample], Any],
        qos: Optional[QosProfile] = None,
    ) -> Subscription:
        """Subscribe to *topic* with *callback(sample)* on the executor."""
        subscription = Subscription(self, topic, callback, qos=qos)
        self.subscriptions.append(subscription)
        return subscription

    def create_timer(
        self, period: int, callback: Callable[[int], Any], jitter_ns: int = 0
    ) -> RosTimer:
        """Create (but not start) a periodic executor timer."""
        timer = RosTimer(self, period, callback, jitter_ns=jitter_ns)
        self.timers.append(timer)
        return timer

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.ecu.name}.{self.name} prio={self.priority}>"
