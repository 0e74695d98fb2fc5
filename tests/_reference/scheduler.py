"""The scheduler as it was before the direct wake path: the oracle.

``repro.sim.scheduler`` places a woken thread directly when nothing
else waits, re-arms one completion handle per core through
``Simulator.reschedule`` and skips an empty scheduling pass.  This is
the form it replaced, kept verbatim: every wake-up runs a full
scheduling pass and every compute slice allocates a fresh completion
event.  ``tests/test_scheduler_differential.py`` runs generated thread
sets on both, under both kernels, and requires the same fired events
and the same accounting.

(The original module docstring follows.)

Preemptive fixed-priority multicore scheduler.

This models the scheduling environment of the paper's evaluation platform:
a PREEMPT_RT Linux where every ROS process, the ksoftirq threads and the
monitor thread hold distinct real-time priorities, threads may migrate
between cores, and core frequency may change under the governor (both
explicitly permitted in the paper's setup and responsible for the latency
tails it measures).

Scheduling is global: at every instant the N highest-priority ready
threads occupy the N cores, and threads migrate freely.

Scheduling decisions are executed eagerly (as direct calls, not queued
events) so that a semaphore post by a low-priority thread immediately
hands the core to an awakened high-priority thread -- the exact mechanism
the paper's monitor thread relies on for its sub-100 microsecond reaction
times.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Callable, List, Optional, TYPE_CHECKING

from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.threads import (
    Compute,
    Sleep,
    SimThread,
    Syscall,
    ThreadState,
    WaitSem,
    Yield,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.cpu import FrequencyGovernor


_priority_key = attrgetter("priority")


class Core:
    """A single CPU core with a (possibly changing) speed factor.

    ``speed`` is a multiplier on nominal execution speed: a ``Compute(d)``
    takes ``d / speed`` nanoseconds of wall-clock time while the core runs
    at that speed.  Frequency governors adjust the speed at runtime via
    :meth:`set_speed`.
    """

    def __init__(self, index: int, scheduler: "MulticoreScheduler", speed: float = 1.0):
        self.index = index
        self.scheduler = scheduler
        self.speed = speed
        self.thread: Optional[SimThread] = None
        self.governor: Optional["FrequencyGovernor"] = None
        # Bookkeeping for the in-flight compute slice.
        self.completion_event: Optional[ScheduledEvent] = None
        self.slice_start: int = 0
        self.slice_speed: float = speed
        # Statistics.
        self.busy_time: int = 0
        self.dispatch_count: int = 0

    @property
    def idle(self) -> bool:
        """True when no thread occupies the core."""
        return self.thread is None

    def set_speed(self, speed: float) -> None:
        """Change the core frequency; rescales any in-flight compute."""
        if speed <= 0:
            raise ValueError(f"core speed must be positive, got {speed}")
        if speed == self.speed:
            return
        self.scheduler._rescale_core(self, speed)

    def __repr__(self) -> str:  # pragma: no cover
        running = self.thread.name if self.thread else "idle"
        return f"<Core {self.index} speed={self.speed} {running}>"


class MulticoreScheduler:
    """Preemptive fixed-priority scheduler over a set of cores.

    Parameters
    ----------
    sim:
        The simulation kernel providing time and event scheduling.
    n_cores:
        Number of identical cores.
    name:
        Identifier used in traces.
    """

    def __init__(
        self,
        sim: Simulator,
        n_cores: int = 1,
        name: str = "cpu",
    ) -> None:
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.sim = sim
        self.name = name
        self.cores: List[Core] = [Core(i, self) for i in range(n_cores)]
        self.threads: List[SimThread] = []
        self._ready: List[SimThread] = []
        #: True while a scheduling pass (or a compute completion) runs:
        #: wake-ups raised from inside it only join the ready set, and
        #: the running pass, which rescans after every dispatch, places
        #: them.
        self._busy = False
        self.context_switches = 0
        #: Observers notified as ``fn(kind, thread)`` on dispatch/preempt.
        self.observers: List[Callable[[str, SimThread], None]] = []

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------
    def add_thread(self, thread: SimThread, start: bool = True) -> SimThread:
        """Register *thread* and (by default) make it ready immediately."""
        if thread.scheduler is not None:
            raise ValueError(f"{thread} already belongs to a scheduler")
        thread.scheduler = self
        self.threads.append(thread)
        if start:
            self.make_ready(thread)
        return thread

    def spawn(self, name: str, body, priority: int = 0) -> SimThread:
        """Create, register and start a thread in one call."""
        return self.add_thread(SimThread(name, body, priority=priority))

    # ------------------------------------------------------------------
    # Readiness / wake-ups
    # ------------------------------------------------------------------
    def make_ready(self, thread: SimThread) -> None:
        """Transition *thread* to READY and trigger a scheduling pass."""
        state = thread.state
        if state is ThreadState.DONE or state is ThreadState.RUNNING:
            return
        thread.state = ThreadState.READY
        if thread not in self._ready:
            self._ready.append(thread)
        thread.activations += 1
        if not self._busy:
            self._busy = True
            try:
                self._schedule_pass()
            finally:
                self._busy = False

    # ------------------------------------------------------------------
    # Core speed changes (called via Core.set_speed)
    # ------------------------------------------------------------------
    def _rescale_core(self, core: Core, new_speed: float) -> None:
        thread = core.thread
        if thread is not None and core.completion_event is not None:
            # Charge the work done so far at the old speed, then replan
            # the completion at the new speed.
            elapsed_wall = self.sim.now - core.slice_start
            done_work = int(elapsed_wall * core.slice_speed)
            thread.remaining_work = max(0, thread.remaining_work - done_work)
            core.completion_event.cancel()
            core.speed = new_speed
            self._begin_compute_slice(core, thread)
        else:
            core.speed = new_speed

    # ------------------------------------------------------------------
    # Scheduling core
    # ------------------------------------------------------------------
    def _schedule_pass(self) -> None:
        """Dispatch ready threads, best first, until none can be placed.

        Each candidate takes the first idle core; failing
        that it preempts the lowest-priority running thread (youngest on
        ties) if it outranks it.  Every dispatch restarts the scan (the
        dispatched thread may have blocked again, or woken others), so
        the assignment is stable when the pass returns.
        """
        ready = self._ready
        cores = self.cores
        while ready:
            # Deterministic order: priority desc; stable sort keeps FIFO
            # order among equal priorities (SCHED_FIFO semantics).
            # (reverse=True preserves the relative order of equal keys.)
            if len(ready) > 1:
                ready.sort(key=_priority_key, reverse=True)
            for thread in ready:
                target = victim = None
                for core in cores:
                    running = core.thread
                    if running is None:
                        target, victim = core, None
                        break
                    if (
                        victim is None
                        or running.priority < victim.priority
                        or (running.priority == victim.priority
                            and running.tid > victim.tid)
                    ):
                        target, victim = core, running
                if victim is not None:
                    if thread.priority <= victim.priority:
                        continue
                    self._preempt(target)
                ready.remove(thread)
                self._dispatch(target, thread)
                break
            else:
                return

    def _preempt(self, core: Core) -> None:
        """Kick the running thread off *core* back into the ready set."""
        thread = core.thread
        assert thread is not None
        if core.completion_event is not None:
            core.completion_event.cancel()
            elapsed_wall = self.sim.now - core.slice_start
            done_work = int(elapsed_wall * core.slice_speed)
            thread.remaining_work = max(0, thread.remaining_work - done_work)
            core.completion_event = None
        self._leave_core(core, thread, ThreadState.READY)
        thread.preemptions += 1
        self.context_switches += 1
        if thread not in self._ready:
            # A preempted thread goes to the *front* of its priority level
            # (SCHED_FIFO), ahead of equal-priority threads that were
            # already waiting.
            self._ready.insert(0, thread)
        if self.observers:
            self._notify("preempt", thread)
        if core.governor is not None:
            core.governor.on_core_idle(core)

    def _leave_core(
        self, core: Core, thread: SimThread, state: ThreadState
    ) -> None:
        """Charge the slice that just ended and vacate *core*."""
        now = self.sim.now
        elapsed = now - core.slice_start
        if elapsed > 0:
            core.busy_time += elapsed
            thread.total_cpu_time += elapsed
        core.slice_start = now
        core.thread = None
        thread.core_index = None
        thread.state = state

    def _dispatch(self, core: Core, thread: SimThread) -> None:
        """Place *thread* on *core* and drive it until it blocks or computes."""
        core.thread = thread
        core.slice_start = self.sim.now
        core.dispatch_count += 1
        thread.core_index = core.index
        thread.state = ThreadState.RUNNING
        if self.observers:
            self._notify("dispatch", thread)
        if core.governor is not None:
            core.governor.on_core_busy(core)
        self._drive(core)

    def _drive(self, core: Core) -> None:
        """Advance the thread on *core* until it starts a compute slice,
        blocks, yields, or finishes.

        Runs with ``_busy`` set; the caller's scheduling pass hands a
        vacated core to the next ready thread.
        """
        thread = core.thread
        assert thread is not None
        sim = self.sim
        gen = thread._gen
        while True:
            if thread.remaining_work > 0:
                # Resume a preempted compute slice.
                self._begin_compute_slice(core, thread)
                return
            spans = sim.spans
            if spans is not None:
                # Restore the thread-carried ambient context: the kernel
                # event that resumed us belongs to the scheduler, not to
                # whatever work this thread was doing when it suspended.
                spans.current = thread.span_ctx
            # The result of the previous syscall is delivered as the value
            # of the thread's yield expression.
            value = thread.pending_value
            thread.pending_value = None
            try:
                # next() works for generators and plain iterators alike.
                syscall = next(gen) if value is None else gen.send(value)
            except StopIteration:
                self._leave_core(core, thread, ThreadState.DONE)
                if core.governor is not None:
                    core.governor.on_core_idle(core)
                if self.observers:
                    self._notify("exit", thread)
                return
            kind = type(syscall)
            if kind is Compute:
                if syscall.duration == 0:
                    continue
                thread.remaining_work = syscall.duration
                self._begin_compute_slice(core, thread)
                return
            if kind is WaitSem:
                if syscall.semaphore._try_acquire():
                    thread.pending_value = True
                    continue
                state, edge = ThreadState.BLOCKED, "block"
            elif kind is Sleep:
                state, edge = ThreadState.SLEEPING, "block"
            elif kind is Yield:
                state, edge = ThreadState.READY, "yield"
            elif isinstance(syscall, Syscall):
                raise TypeError(f"unhandled syscall {syscall!r}")
            else:
                raise TypeError(
                    f"thread {thread.name!r} yielded {syscall!r}, "
                    f"expected a Syscall"
                )
            self._leave_core(core, thread, state)
            if self.observers:
                self._notify(edge, thread)
            if core.governor is not None:
                core.governor.on_core_idle(core)
            if kind is WaitSem:
                syscall.semaphore._enqueue(thread, syscall.timeout)
            elif kind is Sleep:
                sim.schedule_after(
                    syscall.duration, self._wake_from_sleep, thread
                )
            elif thread not in self._ready:
                self._ready.append(thread)
            return

    def _begin_compute_slice(self, core: Core, thread: SimThread) -> None:
        sim = self.sim
        speed = core.speed
        core.slice_start = sim.now
        core.slice_speed = speed
        work = thread.remaining_work
        # Integer-exact at nominal speed; ceil() only when a governor
        # has scaled the core.
        wall = work if speed == 1.0 else math.ceil(work / speed)
        core.completion_event = sim.schedule_after(
            wall if wall > 0 else 1, self._complete_compute, core, thread
        )

    def _complete_compute(self, core: Core, thread: SimThread) -> None:
        if core.thread is not thread:  # stale event (should be cancelled)
            return
        core.completion_event = None
        thread.remaining_work = 0
        now = self.sim.now
        elapsed = now - core.slice_start
        if elapsed > 0:
            core.busy_time += elapsed
            thread.total_cpu_time += elapsed
        core.slice_start = now
        # Completion events fire from the kernel, never inside a pass.
        self._busy = True
        try:
            self._drive(core)
            self._schedule_pass()
        finally:
            self._busy = False

    def _wake_from_sleep(self, thread: SimThread) -> None:
        if thread.state is ThreadState.SLEEPING:
            thread.pending_value = None
            self.make_ready(thread)

    # ------------------------------------------------------------------
    def _notify(self, kind: str, thread: SimThread) -> None:
        for observer in self.observers:
            observer(kind, thread)

    # ------------------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Fraction of total core-time spent busy so far."""
        if self.sim.now == 0:
            return 0.0
        total = len(self.cores) * self.sim.now
        busy = sum(c.busy_time for c in self.cores)
        # Include in-flight slices.
        for core in self.cores:
            if core.thread is not None:
                busy += self.sim.now - core.slice_start
        return busy / total

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MulticoreScheduler {self.name} cores={len(self.cores)} "
            f"threads={len(self.threads)}>"
        )
