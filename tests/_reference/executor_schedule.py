"""Drive a ROS 2 executor model with a hand-written job list.

The conformance tests pin hand-computed schedules; this is the driver
they share.  Nothing in ``src/`` drives the models of
``repro.ros.executors``, so their workloads live here too:
:func:`run_consumers` replays the sink-side ECU of the fork/join
perception pipeline (a planner and a visualizer fed by one fused
transfer per frame, plus a runaway low-priority callback) on one model.
It builds its ``Simulator`` here, so ``_differential.reference_engines``
can substitute the reference kernel.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.ros.executors import (
    EXECUTOR_MODELS,
    CallbackGroup,
    CallbackSpec,
    Dispatch,
)
from repro.sim.kernel import Simulator, msec, usec

#: Frame period and the fused transfer's arrival after each frame start.
PERIOD = msec(100)
RELEASE = usec(5500)
#: Sink deadlines from frame start: each path's telescoped monitored
#: deadline (10 + 8 + 10 ms into the sink-side ECU, then 60 / 40 ms).
DEADLINES = {"plan": msec(88), "viz": msec(68)}


def run_schedule(executor, jobs: List[Tuple[int, str, int]]) -> List[Dispatch]:
    """Submit ``(release, callback, exec_time)`` jobs on the executor's
    simulator, run to quiescence and return the dispatch log sorted by
    (start, thread)."""
    for release, callback, exec_time in jobs:
        executor.sim.schedule_at(release, executor.submit, callback, exec_time)
    executor.sim.run()
    return sorted(executor.dispatches, key=lambda d: (d.start, d.thread))


def consumer_executor(model: str):
    """One *model* executor with the reentrant ``consumers`` group:
    ``plan`` (priority 10), ``viz`` (4) and ``hog`` (0)."""
    executor = EXECUTOR_MODELS[model](Simulator(), "ecu2")
    executor.add_group(CallbackGroup("consumers", reentrant=True))
    for name, priority in (("plan", 10), ("viz", 4), ("hog", 0)):
        executor.add_callback(
            CallbackSpec(name, group="consumers", priority=priority)
        )
    return executor


def run_consumers(
    model: str,
    n_frames: int,
    plan_ns: Callable[[int], int] = lambda frame: msec(8),
    hog_ns: Callable[[int], Optional[int]] = lambda frame: None,
) -> List[Dispatch]:
    """Run *n_frames* of the consumers' workload on *model*.

    Frame ``f`` starts at ``f * PERIOD``: ``hog`` is released then when
    ``hog_ns(f)`` is set, and ``plan`` (``plan_ns(f)``) and ``viz``
    (3 ms) at ``RELEASE`` after it.
    """
    jobs = []
    for frame in range(n_frames):
        start = frame * PERIOD
        hog = hog_ns(frame)
        if hog:
            jobs.append((start, "hog", hog))
        jobs.append((start + RELEASE, "plan", plan_ns(frame)))
        jobs.append((start + RELEASE, "viz", msec(3)))
    return run_schedule(consumer_executor(model), jobs)


def late_sinks(log: List[Dispatch]) -> dict:
    """Per sink, how many instances finished past their frame's deadline."""
    late = {sink: 0 for sink in DEADLINES}
    for dispatch in log:
        deadline = DEADLINES.get(dispatch.callback)
        frame_start = dispatch.release // PERIOD * PERIOD
        if deadline is not None and dispatch.finish > frame_start + deadline:
            late[dispatch.callback] += 1
    return late
