"""Regression: the monitor's deadline heap must not leak retired entries.

The decision core (``repro.ipc.monitor.DecisionCore``) keeps deadlines
in a lazy heap.  Completing, raising or re-arming an activation retires
its entry at once -- an entry is live only while its activation is
pending with the record it was armed with -- and every wake-up drops
dead entries from the top, so a run of N frames must not keep O(N) of
them resident.  This module pins that bound under the production kernel
and the heap oracle kernel.
"""

import pytest

from _differential import SIM_ENGINES, reference_engines
from _harness import PipelineWorld

from repro.sim import msec
from repro.sim.kernel import _MIN_COMPACT

#: Physical-size ceiling: live entries plus at most one compaction
#: window of dead ones, the bound the kernel's sweep threshold gives.
SIZE_BOUND = 2 * _MIN_COMPACT

#: Far more arm/complete cycles than the bound.
N_FRAMES = 300


def _run_world(frames=N_FRAMES):
    world = PipelineWorld(worker_time=lambda i: msec(5), d_mon=msec(20))
    world.publish_frames(frames)
    world.run(until=msec(100 * frames + 200))
    return world


def _live(core):
    """The heap entries whose activation is pending with their record."""
    return [
        entry for entry in core._timeouts
        if entry[2].pending.get(entry[3][1]) is entry[3]
    ]


class TestTimeoutQueueBound:
    @pytest.mark.slow
    @pytest.mark.parametrize("engine", SIM_ENGINES)
    def test_size_bounded_after_many_cancel_cycles(self, engine):
        with reference_engines(sim=engine != SIM_ENGINES[0]):
            world = _run_world()
        core = world.monitor.core
        assert world.runtime.pending == {}, "all segments should complete"
        assert len(core._timeouts) <= SIZE_BOUND, (
            f"{engine}: {len(core._timeouts)} resident entries after "
            f"{N_FRAMES} cycles -- retired deadlines are leaking"
        )
        assert core.next_deadline is None


class TestEagerCancelHooks:
    """Each monitor path that retires a pending activation retires its
    deadline immediately (not merely when it surfaces)."""

    def test_completion_leaves_no_live_deadline(self):
        world = PipelineWorld(worker_time=lambda i: msec(5), d_mon=msec(20))
        world.publish_frames(1)
        world.run(until=msec(150))
        assert world.runtime.pending == {}
        assert world.monitor.core.next_deadline is None
        assert _live(world.monitor.core) == []

    def test_rearm_leaves_one_live_deadline(self):
        world = PipelineWorld(worker_time=lambda i: msec(5), d_mon=msec(20))
        runtime, core = world.runtime, world.monitor.core
        world.publish_frames(2)
        world.run(until=msec(2))
        # Arm an activation that is still pending a second time: its
        # first entry dies, the second is n's one live deadline.
        ((n, first),) = runtime.pending.items()
        again = (first[0], n, world.sim.now)
        core._arm(runtime.lane, again)
        assert [entry[3] for entry in _live(core)] == [again]

    def test_timeout_path_still_fires(self):
        # Sanity: retiring entries must not eat *live* deadlines.
        world = PipelineWorld(worker_time=lambda i: msec(50), d_mon=msec(20))
        world.publish_frames(1)
        world.run(until=msec(300))
        assert len(world.runtime.exceptions) == 1
