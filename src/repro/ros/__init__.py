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

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ros.executor": ("SingleThreadedExecutor",),
    "repro.ros.executors": (
        "EXECUTOR_MODELS", "CallbackGroup", "CallbackSpec", "Dispatch",
        "Ros2MultiThreadedExecutor", "Ros2SingleThreadedExecutor",
    ),
    "repro.ros.node": ("Node", "Publisher", "RosTimer", "Subscription"),
})
