"""Drive a ROS 2 executor model with a hand-written job list.

The conformance tests pin hand-computed schedules; this is the driver
they share.  Nothing in ``src/`` needs one: the DAG stack submits
callbacks as its simulated nodes receive samples.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ros.executors import Dispatch


def run_schedule(executor, jobs: List[Tuple[int, str, int]]) -> List[Dispatch]:
    """Submit ``(release, callback, exec_time)`` jobs on the executor's
    simulator, run to quiescence and return the dispatch log sorted by
    (start, thread)."""
    for release, callback, exec_time in jobs:
        executor.sim.schedule_at(release, executor.submit, callback, exec_time)
    executor.sim.run()
    return sorted(executor.dispatches, key=lambda d: (d.start, d.thread))
