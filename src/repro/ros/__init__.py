"""A minimal ROS2-like layer on top of the DDS middleware.

Mirrors the structure the paper instruments: application logic lives in
callbacks dispatched by a per-process **single-threaded executor**
(:class:`~repro.ros.executor.SingleThreadedExecutor`); subscriptions and
timers feed that executor; publishers wrap DDS writers.  Every ROS
process gets a distinct scheduling priority, as in the paper's
evaluation setup ("We assigned distinct real-time priorities to every
ROS process in descending order").

Callbacks may be plain functions or generators yielding
:class:`~repro.sim.threads.Compute` requests, so services can model
data-dependent execution times that are preemptible by higher-priority
threads (ksoftirq, the monitor thread).
"""

from repro.ros.executor import SingleThreadedExecutor
from repro.ros.executors import (
    EXECUTOR_MODELS,
    CallbackGroup,
    CallbackSpec,
    Dispatch,
    Ros2MultiThreadedExecutor,
    Ros2SingleThreadedExecutor,
)
from repro.ros.node import Node, Publisher, RosTimer, Subscription

__all__ = [
    "SingleThreadedExecutor",
    "EXECUTOR_MODELS",
    "CallbackGroup",
    "CallbackSpec",
    "Dispatch",
    "Ros2MultiThreadedExecutor",
    "Ros2SingleThreadedExecutor",
    "Node",
    "Publisher",
    "Subscription",
    "RosTimer",
]
