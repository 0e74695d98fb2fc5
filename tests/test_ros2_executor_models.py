"""Executor-model conformance: hand-computed schedules, pinned exactly.

Each fixture is small enough to schedule by hand; the assertions pin the
full dispatch log (callback, release, start, finish, thread), so any
drift in polling-point, wait-set-order, callback-group or priority
semantics fails loudly.
"""

import pytest

from _reference.executor_schedule import run_schedule
from repro.ros.executors import (
    EXECUTOR_MODELS,
    POLICY_PRIORITY,
    CallbackGroup,
    CallbackSpec,
    Ros2MultiThreadedExecutor,
    Ros2SingleThreadedExecutor,
)
from repro.sim import Simulator


def tuples(dispatches):
    return [(d.callback, d.release, d.start, d.finish, d.thread)
            for d in dispatches]


class TestPollingPointSemantics:
    """The single-threaded executor's polling-point latency anomaly."""

    def build(self, policy=None):
        sim = Simulator()
        kwargs = {} if policy is None else {"policy": policy}
        ex = Ros2SingleThreadedExecutor(sim, "ecu", **kwargs)
        ex.add_callback(CallbackSpec("A", priority=1))
        ex.add_callback(CallbackSpec("B", priority=5))
        return ex

    def test_resubmitted_callback_starves_earlier_release(self):
        # A@0 drains alone (it was the only pending work at the polling
        # point).  B@0 arrives mid-drain and must wait for the next
        # poll -- where it shares a snapshot with A@5 and loses the
        # wait-set order (registration: A before B).  B waits 20 ns
        # despite releasing at 0: the polling-point anomaly.
        ex = self.build()
        log = run_schedule(ex, [(0, "A", 10), (0, "B", 10), (5, "A", 10)])
        assert tuples(log) == [
            ("A", 0, 0, 10, 0),
            ("A", 5, 10, 20, 0),
            ("B", 0, 20, 30, 0),
        ]
        assert ex.max_queueing_delay == 20

    def test_priority_policy_reorders_within_snapshot(self):
        # Same release pattern, priority policy: B (prio 5) now beats
        # A (prio 1) inside the second snapshot.
        ex = self.build(policy=POLICY_PRIORITY)
        log = run_schedule(ex, [(0, "A", 10), (0, "B", 10), (5, "A", 10)])
        assert tuples(log) == [
            ("A", 0, 0, 10, 0),
            ("B", 0, 10, 20, 0),
            ("A", 5, 20, 30, 0),
        ]

    def test_timers_polled_before_subscriptions(self):
        sim = Simulator()
        ex = Ros2SingleThreadedExecutor(sim, "ecu")
        ex.add_callback(CallbackSpec("C"))
        ex.add_callback(CallbackSpec("S"))
        ex.add_callback(CallbackSpec("T", kind="timer"))
        # C drains first; S and T queue and share the t=5 snapshot,
        # where the timer runs first despite later registration.
        log = run_schedule(ex, [(0, "C", 5), (0, "S", 3), (0, "T", 3)])
        assert tuples(log) == [
            ("C", 0, 0, 5, 0),
            ("T", 0, 5, 8, 0),
            ("S", 0, 8, 11, 0),
        ]

    def test_at_most_one_instance_per_callback_per_snapshot(self):
        sim = Simulator()
        ex = Ros2SingleThreadedExecutor(sim, "ecu")
        ex.add_callback(CallbackSpec("A"))
        ex.add_callback(CallbackSpec("B"))
        # Three A instances and one B queue while A@0 drains.  Each
        # subsequent snapshot admits one A and (once) the B: the B is
        # not starved behind the whole A backlog.
        log = run_schedule(
            ex, [(0, "A", 10), (1, "A", 10), (2, "A", 10), (3, "B", 10)]
        )
        assert tuples(log) == [
            ("A", 0, 0, 10, 0),
            ("A", 1, 10, 20, 0),
            ("B", 3, 20, 30, 0),
            ("A", 2, 30, 40, 0),
        ]

    def test_unknown_callback_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown callback kind"):
            CallbackSpec("X", kind="service")

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        ex = Ros2SingleThreadedExecutor(sim, "ecu")
        ex.add_callback(CallbackSpec("A"))
        with pytest.raises(ValueError, match="duplicate"):
            ex.add_callback(CallbackSpec("A"))


class TestReentrantHandlerSubmission:
    """A handler that submit()s must not put two callbacks in flight.

    Regression: _finish used to clear _busy before running the user
    handler, so a handler submitting new work (the DAG stack's fusion
    join does exactly this) reentrantly polled and started a job, after
    which _finish started a *second* job from the same snapshot --
    overlapping dispatches on a single-threaded executor.
    """

    def test_handler_submit_with_pending_work_stays_serialized(self):
        sim = Simulator()
        ex = Ros2SingleThreadedExecutor(sim, "ecu")
        ex.add_callback(CallbackSpec("a"), lambda _payload: ex.submit("c", 100))
        ex.add_callback(CallbackSpec("b"))
        ex.add_callback(CallbackSpec("c"))
        # b arrives while a drains; a's completion handler submits c.
        # The buggy executor ran b(1000-2000) and c(1000-1100)
        # concurrently on thread 0.
        sim.schedule_at(0, lambda: ex.submit("a", 1000))
        sim.schedule_at(500, lambda: ex.submit("b", 1000))
        sim.run()
        log = sorted(ex.dispatches, key=lambda d: d.start)
        assert tuples(log) == [
            ("a", 0, 0, 1000, 0),
            ("b", 500, 1000, 2000, 0),
            ("c", 1000, 2000, 2100, 0),
        ]

    def test_handler_submit_mid_snapshot_waits_for_next_poll(self):
        sim = Simulator()
        ex = Ros2SingleThreadedExecutor(sim, "ecu")
        ex.add_callback(CallbackSpec("a"), lambda _payload: ex.submit("c", 5))
        ex.add_callback(CallbackSpec("b"))
        ex.add_callback(CallbackSpec("c"))
        # a and b share the t=0 snapshot; c (submitted from a's
        # handler) waits for the polling point after b completes.
        log = run_schedule(ex, [(0, "a", 10), (0, "b", 10)])
        assert tuples(log) == [
            ("a", 0, 0, 10, 0),
            ("b", 0, 10, 20, 0),
            ("c", 10, 20, 25, 0),
        ]

    @pytest.mark.parametrize("policy", [None, POLICY_PRIORITY])
    def test_single_thread_dispatches_never_overlap(self, policy):
        kwargs = {} if policy is None else {"policy": policy}
        sim = Simulator()
        ex = Ros2SingleThreadedExecutor(sim, "ecu", **kwargs)
        ex.add_callback(CallbackSpec("a", priority=1),
                        lambda _payload: ex.submit("c", 7))
        ex.add_callback(CallbackSpec("b", priority=9))
        ex.add_callback(CallbackSpec("c", priority=5))
        run_schedule(ex, [(0, "a", 10), (3, "b", 20), (6, "a", 4),
                          (11, "b", 2), (30, "a", 5)])
        spans = sorted((d.start, d.finish) for d in ex.dispatches)
        assert all(prev_finish <= start
                   for (_, prev_finish), (start, _) in zip(spans, spans[1:]))


class TestCallbackGroups:
    """Multi-threaded executor: group serialization vs reentrancy."""

    def build(self, reentrant):
        sim = Simulator()
        ex = Ros2MultiThreadedExecutor(sim, "ecu", n_threads=2)
        ex.add_group(CallbackGroup("g", reentrant=reentrant))
        ex.add_callback(CallbackSpec("X", group="g"))
        ex.add_callback(CallbackSpec("Y", group="g"))
        return ex

    def test_mutually_exclusive_group_serializes_despite_idle_thread(self):
        log = run_schedule(self.build(reentrant=False),
                           [(0, "X", 10), (0, "Y", 10)])
        assert tuples(log) == [
            ("X", 0, 0, 10, 0),
            ("Y", 0, 10, 20, 0),
        ]

    def test_reentrant_group_runs_concurrently(self):
        log = run_schedule(self.build(reentrant=True),
                           [(0, "X", 10), (0, "Y", 10)])
        assert tuples(log) == [
            ("X", 0, 0, 10, 0),
            ("Y", 0, 0, 10, 1),
        ]

    def test_distinct_groups_run_concurrently(self):
        sim = Simulator()
        ex = Ros2MultiThreadedExecutor(sim, "ecu", n_threads=2)
        ex.add_callback(CallbackSpec("X", group="g1"))
        ex.add_callback(CallbackSpec("Y", group="g2"))
        log = run_schedule(ex, [(0, "X", 10), (0, "Y", 10)])
        assert {(d.callback, d.thread) for d in log} == {("X", 0), ("Y", 1)}
        assert all(d.start == 0 for d in log)

    def test_unknown_callback_submission_rejected(self):
        sim = Simulator()
        ex = Ros2MultiThreadedExecutor(sim, "ecu")
        with pytest.raises(KeyError, match="unknown callback"):
            ex.submit("ghost", 10)

    def test_nonpositive_thread_count_rejected(self):
        with pytest.raises(ValueError, match="n_threads"):
            Ros2MultiThreadedExecutor(Simulator(), "ecu", n_threads=0)


class TestPriorityDispatch:
    """Priority-driven dispatch vs FIFO release order (PiCAS-style)."""

    def build(self, policy):
        sim = Simulator()
        ex = Ros2MultiThreadedExecutor(sim, "ecu", n_threads=1,
                                       policy=policy)
        ex.add_callback(CallbackSpec("low", priority=0))
        ex.add_callback(CallbackSpec("mid", priority=1))
        ex.add_callback(CallbackSpec("high", priority=5))
        return ex

    JOBS = [(0, "low", 10), (1, "mid", 5), (2, "high", 5)]

    def test_fifo_policy_picks_earliest_release(self):
        log = run_schedule(self.build("waitset"), self.JOBS)
        assert [d.callback for d in log] == ["low", "mid", "high"]

    def test_priority_policy_picks_most_urgent(self):
        log = run_schedule(self.build(POLICY_PRIORITY), self.JOBS)
        assert tuples(log) == [
            ("low", 0, 0, 10, 0),
            ("high", 2, 10, 15, 0),
            ("mid", 1, 15, 20, 0),
        ]


class TestRegistryAndDeterminism:
    def test_registry_models(self):
        assert set(EXECUTOR_MODELS) == {"single", "multi", "priority"}
        for name, factory in EXECUTOR_MODELS.items():
            ex = factory(Simulator(), name)
            assert ex.name == name

    @pytest.mark.parametrize("model", sorted(EXECUTOR_MODELS))
    def test_identical_runs_produce_identical_dispatch_logs(self, model):
        jobs = [(0, "A", 7), (0, "B", 3), (4, "A", 2), (9, "B", 5)]

        def one_run():
            ex = EXECUTOR_MODELS[model](Simulator(), model)
            ex.add_callback(CallbackSpec("A", priority=2))
            ex.add_callback(CallbackSpec("B", priority=7))
            return tuples(run_schedule(ex, jobs))

        assert one_run() == one_run()
