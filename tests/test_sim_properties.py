"""Property-based tests of simulator invariants.

Random task sets are executed and global invariants checked:
- priority inversion freedom: no ready thread ever outranks a running one
  at a scheduling quiescence point;
- work conservation: total CPU time charged equals the busy time cores
  accumulated;
- determinism: identical seeds yield identical schedules;
- bounded runs: a schedule driven as ``run(until=t1); run(until=t2);
  ...; run()`` fires the same events, in the same order, as one
  ``run()`` and as the heap reference kernel driven the same way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from _reference.heap_kernel import HeapSimulator

from repro.sim import (
    Compute,
    MulticoreScheduler,
    Simulator,
    Sleep,
    msec,
    usec,
)
from repro.sim.threads import ThreadState


task_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=10),      # priority
        st.integers(min_value=1, max_value=5),       # number of jobs
        st.integers(min_value=100, max_value=5000),  # compute us per job
        st.integers(min_value=0, max_value=3000),    # sleep us between jobs
    ),
    min_size=1,
    max_size=6,
)


def build(sim, sched, tasks):
    threads = []
    for prio, jobs, compute_us, sleep_us in tasks:
        def body(_, jobs=jobs, compute_us=compute_us, sleep_us=sleep_us):
            for _j in range(jobs):
                yield Compute(usec(compute_us))
                if sleep_us:
                    yield Sleep(usec(sleep_us))

        threads.append(sched.spawn(f"t{len(threads)}", body, priority=prio))
    return threads


class TestSchedulerProperties:
    @given(task_strategy, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_all_work_completes(self, tasks, n_cores):
        sim = Simulator(seed=1)
        sched = MulticoreScheduler(sim, n_cores=n_cores)
        threads = build(sim, sched, tasks)
        sim.run()
        assert all(t.state is ThreadState.DONE for t in threads)
        for thread, (prio, jobs, compute_us, _s) in zip(threads, tasks):
            assert thread.total_cpu_time == jobs * usec(compute_us)

    @given(task_strategy, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_work_conservation(self, tasks, n_cores):
        sim = Simulator(seed=1)
        sched = MulticoreScheduler(sim, n_cores=n_cores)
        threads = build(sim, sched, tasks)
        sim.run()
        charged = sum(t.total_cpu_time for t in threads)
        busy = sum(core.busy_time for core in sched.cores)
        assert charged == busy

    @given(task_strategy, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_no_ready_thread_outranks_running(self, tasks, n_cores):
        sim = Simulator(seed=1)
        sched = MulticoreScheduler(sim, n_cores=n_cores)
        build(sim, sched, tasks)
        violations = []

        def check():
            running = [c.thread for c in sched.cores if c.thread is not None]
            ready = [t for t in sched._ready if t.state is ThreadState.READY]
            if running and ready and len(running) == len(sched.cores):
                if max(t.priority for t in ready) > min(
                    t.priority for t in running
                ):
                    violations.append(sim.now)

        # Sample the invariant at quiescence points (after each event).
        for t_us in range(0, 50_000, 500):
            sim.schedule_at(usec(t_us), check, priority=10**6)
        sim.run()
        assert violations == []

    @given(task_strategy)
    @settings(max_examples=30, deadline=None)
    def test_determinism(self, tasks):
        def run_once():
            sim = Simulator(seed=7)
            sched = MulticoreScheduler(sim, n_cores=2)
            threads = build(sim, sched, tasks)
            trace = []
            sched.observers.append(
                lambda kind, t: trace.append((sim.now, kind, t.name))
            )
            sim.run()
            return trace, sim.now

        first = run_once()
        second = run_once()
        assert first == second

    @given(
        st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=8)
    )
    @settings(max_examples=50, deadline=None)
    def test_single_core_priority_completion_order(self, priorities):
        """On one core with simultaneous release and no sleeping,
        strictly higher-priority threads finish no later than lower."""
        sim = Simulator(seed=1)
        sched = MulticoreScheduler(sim, n_cores=1)
        finish = {}

        def make(name, prio):
            def body(_):
                yield Compute(usec(100))
                finish[name] = (sim.now, prio)
            return body

        # Release all at t=1ms (so spawn order does not pre-run anyone).
        threads = []
        for i, prio in enumerate(priorities):
            def starter(name=f"t{i}", prio=prio):
                sched.spawn(name, make(name, prio), priority=prio)
            sim.schedule_at(msec(1), starter)
        sim.run()
        for (t_a, p_a) in finish.values():
            for (t_b, p_b) in finish.values():
                if p_a > p_b:
                    assert t_a <= t_b


# ----------------------------------------------------------------------
# Bounded runs: run(until=t1); run(until=t2); ...; run() == one run()
# ----------------------------------------------------------------------
#: ~0.5 ms, the scale of a chain's slices and deadlines: generated
#: times tie, interleave and straddle the ``until`` cut points.
STEP = 1 << 19
#: Deltas around the grid: an instant, a tie, and one tick either side.
deltas = st.sampled_from([0, 1, STEP - 1, STEP, STEP + 1, 2 * STEP, 5 * STEP])
priorities = st.integers(min_value=0, max_value=2)

#: What a fired event does, in order.  ``pick`` indexes the handles
#: issued so far (modulo their number), so every draw is valid.
actions = st.lists(
    st.one_of(
        st.tuples(st.just("after"), deltas, priorities),
        st.tuples(st.just("now")),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("reschedule"), st.integers(0, 63), deltas),
    ),
    max_size=4,
)
#: Scripts are shared by index, so events scheduled by callbacks have
#: behaviour of their own without a recursive strategy.
scripts = st.lists(actions, min_size=1, max_size=6)
initial_events = st.lists(
    st.tuples(deltas, deltas, priorities), min_size=1, max_size=12
)
cut_points = st.lists(deltas, max_size=6)

#: A script may re-arm its own (fired) handle at ``now`` forever.
MAX_FIRED = 150


class _Schedule:
    """One generated schedule bound to one simulator."""

    def __init__(self, sim, scripts, initial):
        self.sim = sim
        self.scripts = scripts
        self.handles = []
        self.fired = []
        for i, (a, b, priority) in enumerate(initial):
            self.handles.append(
                sim.schedule_at(a + b, self._fire, i, i, priority=priority)
            )

    def _fire(self, ident, script):
        sim = self.sim
        self.fired.append((ident, sim.now))
        if len(self.fired) >= MAX_FIRED:
            return
        for op in self.scripts[script % len(self.scripts)]:
            if op[0] == "after":
                self.handles.append(sim.schedule_after(
                    op[1], self._fire, len(self.handles), script + 1,
                    priority=op[2],
                ))
            elif op[0] == "now":
                self.handles.append(sim.call_now(
                    self._fire, len(self.handles), script + 2
                ))
            elif op[0] == "cancel":
                self.handles[op[1] % len(self.handles)].cancel()
            else:
                pick = op[1] % len(self.handles)
                # reschedule() returns the handle to keep.
                self.handles[pick] = sim.reschedule(
                    self.handles[pick], sim.now + op[2]
                )

    def run_sliced(self, cuts):
        """``(now, fired, pending)`` after every slice, then a drain."""
        trail = []
        until = 0
        for delta in cuts:
            until += delta
            count = self.sim.run(until=until)
            assert self.sim.now == until
            assert all(time <= until for _ident, time in self.fired)
            trail.append((self.sim.now, count, self.sim.pending_events))
        trail.append((None, self.sim.run(), self.sim.pending_events))
        return trail


class TestBoundedRun:
    @given(scripts, initial_events, cut_points)
    @settings(max_examples=200, deadline=None)
    def test_sliced_run_equals_one_run_and_the_heap_reference(
        self, scripts, initial, cuts
    ):
        whole = _Schedule(Simulator(), scripts, initial)
        whole_count = whole.sim.run()

        sliced = _Schedule(Simulator(), scripts, initial)
        trail = sliced.run_sliced(cuts)
        assert sliced.fired == whole.fired
        assert sum(count for _now, count, _pending in trail) == whole_count
        assert sliced.sim.pending_events == whole.sim.pending_events

        reference = _Schedule(HeapSimulator(), scripts, initial)
        assert reference.run_sliced(cuts) == trail
        assert reference.fired == whole.fired

    def test_events_at_exactly_until_fire_and_empty_slices_advance(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(STEP, fired.append, "at")
        sim.schedule_at(STEP + 1, fired.append, "beyond")
        assert sim.run(until=STEP - 1) == 0 and sim.now == STEP - 1
        assert sim.run(until=STEP) == 1 and fired == ["at"]
        assert sim.run(until=STEP) == 0 and sim.now == STEP
        assert sim.run() == 1 and sim.now == STEP + 1
