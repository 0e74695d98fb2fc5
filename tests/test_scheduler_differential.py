"""The scheduler against its full-pass oracle, under both kernels.

``repro.sim.scheduler`` places a woken thread directly, re-arms one
completion handle per core through ``Simulator.reschedule`` and skips
an empty scheduling pass.  ``tests/_reference/scheduler.py`` is the
form it replaced: a full pass per wake-up and a fresh event per compute
slice.  Generated thread sets -- 1-3 cores, priorities with ties,
``Compute`` / ``Sleep`` / ``WaitSem`` (with and without a timeout) /
``Yield``, posts from timers and from threads, and a core whose speed a
``BurstyGovernor`` changes -- run on both schedulers, each under the
production kernel and the lazy-cancel heap oracle, and all four runs
must agree on:

* the fired events: time, sequence number and callback qualname;
* per thread: ``total_cpu_time``, ``preemptions``, ``activations`` and
  what every ``WaitSem`` returned, when;
* ``context_switches`` and each core's ``busy_time``.

The heap kernel is what makes the comparison bite on the handle: it
skips an entry only when its event is cancelled, so a completion
handle pushed onto the heap by hand after a preemption would revive
the preempted slice's entry (``test_a_preempted_slice_stays_cancelled``
is that case).
"""

import heapq
from typing import List, NamedTuple, Optional, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import scheduler as reference
from _reference.heap_kernel import HeapSimulator

from repro.sim import scheduler as production
from repro.sim.cpu import BurstyGovernor
from repro.sim.kernel import Simulator
from repro.sim.sync import Semaphore
from repro.sim.threads import Compute, Sleep, WaitSem, Yield
from repro.sim.timers import Timer

#: Every run stops here (the governor's excursions never end).
HORIZON = 4_000


class _StampedRecorder(Simulator):
    """The production kernel, noting every entry its ``_pop`` fires."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.fired: List[Tuple[int, int, str]] = []

    def _pop(self, limit=None):
        entry = super()._pop(limit)
        if entry is not None:
            self.fired.append(
                (entry[0], entry[2], entry[3].callback.__qualname__)
            )
        return entry

    def drive(self, until: int) -> None:
        # ``max_events`` routes ``run`` through ``_pop``.
        self.run(until=until, max_events=10**9)


class _HeapRecorder(HeapSimulator):
    """The lazy-cancel oracle kernel, noting the head ``step`` fires."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.fired: List[Tuple[int, int, str]] = []

    def drive(self, until: int) -> None:
        heap = self._heap
        while True:
            while heap and heap[0][3].cancelled:
                heapq.heappop(heap)  # what ``step`` skips
            if not heap or heap[0][0] > until:
                break
            time, _prio, seq, event = heap[0]
            self.fired.append((time, seq, event.callback.__qualname__))
            self.step()
        self.now = until


KERNELS = {"stamped": _StampedRecorder, "heap": _HeapRecorder}
SCHEDULERS = {"production": production, "reference": reference}


class Case(NamedTuple):
    n_cores: int
    governor: bool
    n_sems: int
    #: Per thread: (priority, ops); an op is ("compute", ns),
    #: ("sleep", ns), ("wait", sem, timeout-or-None), ("yield",) or
    #: ("post", sem).
    threads: Tuple[Tuple[int, Tuple[tuple, ...]], ...]
    #: Timer posts: (time, sem).
    posts: Tuple[Tuple[int, int], ...]


def _run(case: Case, scheduler_module, kernel) -> dict:
    sim = kernel(seed=7)
    sched = scheduler_module.MulticoreScheduler(sim, n_cores=case.n_cores)
    if case.governor:
        core = sched.cores[0]
        governor = BurstyGovernor(
            slow_min=0.25, slow_max=0.5, mean_interval=300, mean_dwell=200,
        )
        core.governor = governor
        governor.attach(core, sim)
    sems = [Semaphore(sim, name=f"s{i}") for i in range(case.n_sems)]
    waits: List[Tuple[int, int, Optional[bool]]] = []
    threads = []
    for index, (priority, ops) in enumerate(case.threads):
        def body(_thread, index=index, ops=ops):
            for op in ops:
                kind = op[0]
                if kind == "compute":
                    yield Compute(op[1])
                elif kind == "sleep":
                    yield Sleep(op[1])
                elif kind == "wait":
                    got = yield WaitSem(sems[op[1]], timeout=op[2])
                    waits.append((index, sim.now, got))
                elif kind == "yield":
                    yield Yield()
                else:
                    sems[op[1]].post()

        threads.append(sched.spawn(f"t{index}", body, priority=priority))
    for time, sem in case.posts:
        Timer(sim, sems[sem].post, name=f"post{sem}").start_at(time)
    sim.drive(HORIZON)
    return {
        "fired": sim.fired,
        "threads": [
            (t.total_cpu_time, t.preemptions, t.activations, t.state.value)
            for t in threads
        ],
        "waits": waits,
        "context_switches": sched.context_switches,
        "busy": [core.busy_time for core in sched.cores],
    }


def compare(case: Case) -> int:
    """Run *case* four ways; assert one outcome; return the events compared."""
    outcomes = {
        (scheduler, kernel): _run(case, module, recorder)
        for scheduler, module in SCHEDULERS.items()
        for kernel, recorder in KERNELS.items()
    }
    expected = outcomes["reference", "heap"]
    for key, outcome in outcomes.items():
        for field in expected:
            assert outcome[field] == expected[field], (key, field)
    return len(expected["fired"])


def _op(n_sems: int):
    sem = st.integers(0, n_sems - 1)
    duration = st.integers(0, 300)
    return st.one_of(
        st.tuples(st.just("compute"), duration),
        st.tuples(st.just("sleep"), duration),
        st.tuples(st.just("wait"), sem, st.none() | duration),
        st.tuples(st.just("yield")),
        st.tuples(st.just("post"), sem),
    )


@st.composite
def cases(draw) -> Case:
    n_sems = draw(st.integers(1, 2))
    ops = st.lists(_op(n_sems), max_size=6).map(tuple)
    # Background threads hold the cores for a while at low, often equal
    # priorities; the others mostly wait and wake.  A wake then finds
    # every core busy, the case where the victim rule decides.
    background = st.tuples(
        st.integers(1, 2),
        st.tuples(st.just("compute"), st.integers(100, 600)).flatmap(
            lambda first: ops.map(lambda rest: (first,) + rest)
        ),
    )
    other = st.tuples(st.integers(1, 4), ops)
    threads = draw(st.lists(background, max_size=3)) + draw(
        st.lists(other, min_size=1, max_size=3)
    )
    return Case(
        n_cores=draw(st.integers(1, 3)),
        governor=draw(st.booleans()),
        n_sems=n_sems,
        threads=tuple(threads),
        posts=tuple(draw(st.lists(
            st.tuples(st.integers(0, 2_000), st.integers(0, n_sems - 1)),
            min_size=1, max_size=6,
        ))),
    )


#: One core: ``low`` computes 100 ns; ``high`` sleeps 10 ns, then
#: computes 5 ns.  ``high`` preempts ``low`` at 0 and again at 10, so
#: ``low`` ends at 105.
TWO_THREADS = Case(
    n_cores=1, governor=False, n_sems=1,
    threads=(
        (1, (("compute", 100),)),
        (9, (("sleep", 10), ("compute", 5))),
    ),
    posts=((0, 0),),
)

#: Two cores busy with equal-priority threads: the woken thread must
#: preempt the younger one (the higher ``tid``), not the first core's.
TIED_VICTIMS = Case(
    n_cores=2, governor=False, n_sems=1,
    threads=(
        (2, (("compute", 200),)),
        (2, (("compute", 200),)),
        (5, (("wait", 0, None), ("compute", 10))),
    ),
    posts=((50, 0),),
)

#: One core: a post wakes ``high``, which preempts ``low`` and blocks at
#: once; ``low`` must get the core back in the same instant.
PREEMPT_THEN_BLOCK = Case(
    n_cores=1, governor=False, n_sems=1,
    threads=(
        (1, (("compute", 100), ("compute", 100))),
        (9, (("wait", 0, None), ("wait", 0, 500), ("compute", 20))),
    ),
    posts=((30, 0), (400, 0)),
)


@given(cases())
@example(TWO_THREADS)
@example(TIED_VICTIMS)
@example(PREEMPT_THEN_BLOCK)
@settings(max_examples=150, deadline=None)
def test_production_matches_the_full_pass_oracle(case):
    assert compare(case) > 0


def test_a_preempted_slice_stays_cancelled():
    ends = {}
    for kernel, recorder in KERNELS.items():
        sim = recorder(seed=1)
        sched = production.MulticoreScheduler(sim, n_cores=1)
        for name, priority, ops in (
            ("low", 1, [Compute(100)]),
            ("high", 9, [Sleep(10), Compute(5)]),
        ):
            def body(_thread, name=name, ops=ops):
                for op in ops:
                    yield op
                ends[kernel, name] = sim.now

            sched.spawn(name, body, priority=priority)
        sim.drive(HORIZON)
        # At 0 by ``high``'s start, at 10 by its wake.
        assert sched.threads[0].preemptions == 2
    assert ends == {
        ("stamped", "low"): 105, ("stamped", "high"): 15,
        ("heap", "low"): 105, ("heap", "high"): 15,
    }
    assert compare(TWO_THREADS) > 0


def test_the_examples_exercise_what_they_name():
    for case, kernel in ((TIED_VICTIMS, "stamped"), (PREEMPT_THEN_BLOCK, "heap")):
        outcome = _run(case, production, KERNELS[kernel])
        assert outcome["context_switches"] > 0
        assert compare(case) > 0
    tied = _run(TIED_VICTIMS, reference, _StampedRecorder)["threads"]
    # The younger of the two tied threads is the one preempted.
    assert [preemptions for _cpu, preemptions, _a, _s in tied] == [0, 2, 0]
