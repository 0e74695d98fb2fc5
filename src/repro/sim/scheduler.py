"""Preemptive fixed-priority multicore scheduler.

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

The wake path is the hot one.  A thread woken while nothing else is
ready is placed directly by the pass's own rule (``_pick_core``),
and the pass runs only if that left a preempted thread ready; a compute
completion runs it only when a thread is ready.  Each core re-arms one
completion handle per slice through :meth:`Simulator.reschedule`, which
consumes one sequence number as a fresh event would, so every tie-break
stays put.  The handle never goes onto the heap by hand: a lazy-cancel
kernel returns a fresh handle from ``reschedule`` and must see a
preempted slice's entry stay cancelled.  The fired events and their
times are those of the plain form (a full pass per wake, an event per
slice), kept as the oracle ``tests/_reference/scheduler.py``.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import List, Optional, Tuple, TYPE_CHECKING

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

#: The speed every core starts at; only a governor moves it.  Speed is a
#: multiplier on nominal execution speed, and a slice at exactly this
#: speed takes its work in nanoseconds, integer-exact.
NOMINAL_SPEED = 1.0


class Core:
    """A single CPU core with a (possibly changing) speed factor.

    ``speed`` is a multiplier on nominal execution speed: a ``Compute(d)``
    takes ``d / speed`` nanoseconds of wall-clock time while the core runs
    at that speed.  Frequency governors adjust the speed at runtime via
    :meth:`set_speed`.
    """

    def __init__(self, index: int, scheduler: "MulticoreScheduler"):
        self.index = index
        self.scheduler = scheduler
        self.speed = NOMINAL_SPEED
        self.thread: Optional[SimThread] = None
        self.governor: Optional["FrequencyGovernor"] = None
        #: The core's one completion handle, re-armed for every compute
        #: slice (keep what ``reschedule`` returns: a lazy-cancel kernel
        #: hands back a fresh one).
        self.completion = ScheduledEvent(
            scheduler._complete_compute, (self,), 0
        )
        #: True while a compute slice is in flight.
        self.computing = False
        self.slice_start: int = 0
        self.slice_speed: float = NOMINAL_SPEED
        # Statistics.
        self.busy_time: int = 0
        self.dispatch_count: int = 0

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
        """Transition *thread* to READY and place it.

        Outside a pass, with nothing else ready, the thread is placed
        directly by the pass's rule; otherwise it joins the ready set
        and a pass (the running one, or a new one) places it.
        """
        state = thread.state
        if state is ThreadState.DONE or state is ThreadState.RUNNING:
            return
        thread.state = ThreadState.READY
        thread.activations += 1
        ready = self._ready
        core = victim = None
        if self._busy or ready:
            if thread not in ready:
                ready.append(thread)
            if self._busy:
                return
        else:
            core, victim = self._pick_core()
            if victim is not None and thread.priority <= victim.priority:
                ready.append(thread)
                return
        self._busy = True
        try:
            if core is not None:
                if victim is not None:
                    self._preempt(core)
                self._dispatch(core, thread)
            if ready:
                self._schedule_pass()
        finally:
            self._busy = False

    # ------------------------------------------------------------------
    # Core speed changes (called via Core.set_speed)
    # ------------------------------------------------------------------
    def _rescale_core(self, core: Core, new_speed: float) -> None:
        if core.computing:
            # Charge the work done so far at the old speed, then replan
            # the completion at the new speed (re-arming the handle
            # retires the in-flight entry).
            thread = core.thread
            elapsed_wall = self.sim.now - core.slice_start
            done_work = int(elapsed_wall * core.slice_speed)
            thread.remaining_work = max(0, thread.remaining_work - done_work)
            core.speed = new_speed
            self._begin_compute_slice(core)
        else:
            core.speed = new_speed

    # ------------------------------------------------------------------
    # Scheduling core
    # ------------------------------------------------------------------
    def _pick_core(self) -> Tuple[Core, Optional[SimThread]]:
        """Where a ready thread goes: ``(core, victim)``.

        The first idle core (victim None), else the core of the
        lowest-priority running thread, the youngest (highest ``tid``)
        on ties; the caller preempts the victim only if its thread
        outranks it.
        """
        target = victim = None
        for core in self.cores:
            running = core.thread
            if running is None:
                return core, None
            if (
                victim is None
                or running.priority < victim.priority
                or (running.priority == victim.priority
                    and running.tid > victim.tid)
            ):
                target, victim = core, running
        return target, victim

    def _schedule_pass(self) -> None:
        """Dispatch ready threads, best first, until none can be placed.

        The best ready thread goes where :meth:`_pick_core` says; when
        it does not outrank the victim, no ready thread does, and the
        pass ends.  Every dispatch restarts the scan (the dispatched
        thread may have blocked again, or woken others), so the
        assignment is stable when the pass returns.
        """
        ready = self._ready
        while ready:
            # Deterministic order: priority desc; stable sort keeps FIFO
            # order among equal priorities (SCHED_FIFO semantics).
            # (reverse=True preserves the relative order of equal keys.)
            if len(ready) > 1:
                ready.sort(key=_priority_key, reverse=True)
            thread = ready[0]
            core, victim = self._pick_core()
            if victim is not None and thread.priority <= victim.priority:
                return
            del ready[0]
            if victim is not None:
                self._preempt(core)
            self._dispatch(core, thread)

    def _preempt(self, core: Core) -> None:
        """Kick the running thread off *core* back into the ready set."""
        thread = core.thread
        assert thread is not None
        if core.computing:
            core.completion.cancel()
            core.computing = False
            elapsed_wall = self.sim.now - core.slice_start
            done_work = int(elapsed_wall * core.slice_speed)
            thread.remaining_work = max(0, thread.remaining_work - done_work)
        self._leave_core(core, thread, ThreadState.READY)
        thread.preemptions += 1
        self.context_switches += 1
        if thread not in self._ready:
            # A preempted thread goes to the *front* of its priority level
            # (SCHED_FIFO), ahead of equal-priority threads that were
            # already waiting.
            self._ready.insert(0, thread)
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
        if thread.remaining_work > 0:
            # Resume a preempted compute slice.
            self._begin_compute_slice(core)
            return
        sim = self.sim
        gen = thread._gen
        while True:
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
                return
            kind = type(syscall)
            if kind is Compute:
                work = syscall.duration
                if work == 0:
                    continue
                thread.remaining_work = work
                if core.speed != NOMINAL_SPEED:
                    self._begin_compute_slice(core)
                    return
                # The slice start at nominal speed, inlined.
                now = sim.now
                core.slice_start = now
                core.slice_speed = NOMINAL_SPEED
                core.completion = sim.reschedule(core.completion, now + work)
                core.computing = True
                return
            if kind is WaitSem:
                if syscall.semaphore._try_acquire():
                    thread.pending_value = True
                    continue
                state = ThreadState.BLOCKED
            elif kind is Sleep:
                state = ThreadState.SLEEPING
            elif kind is Yield:
                state = ThreadState.READY
            elif isinstance(syscall, Syscall):
                raise TypeError(f"unhandled syscall {syscall!r}")
            else:
                raise TypeError(
                    f"thread {thread.name!r} yielded {syscall!r}, "
                    f"expected a Syscall"
                )
            break
        # Leave the core (``_leave_core``, inlined).
        now = sim.now
        elapsed = now - core.slice_start
        if elapsed > 0:
            core.busy_time += elapsed
            thread.total_cpu_time += elapsed
        core.slice_start = now
        core.thread = None
        thread.core_index = None
        thread.state = state
        if core.governor is not None:
            core.governor.on_core_idle(core)
        if kind is WaitSem:
            syscall.semaphore._enqueue(thread, syscall.timeout)
        elif kind is Sleep:
            sim.schedule_after(syscall.duration, self._wake_from_sleep, thread)
        elif thread not in self._ready:
            self._ready.append(thread)

    def _begin_compute_slice(self, core: Core) -> None:
        """Arm *core*'s completion for its thread's remaining work."""
        sim = self.sim
        speed = core.speed
        now = sim.now
        core.slice_start = now
        core.slice_speed = speed
        work = core.thread.remaining_work
        # Integer-exact at nominal speed; ceil() only when a governor
        # has scaled the core.
        wall = work if speed == NOMINAL_SPEED else math.ceil(work / speed)
        core.completion = sim.reschedule(
            core.completion, now + (wall if wall > 0 else 1)
        )
        core.computing = True

    def _complete_compute(self, core: Core) -> None:
        # A preempted or rescaled slice retired its entry, so the core
        # still runs the thread this slice belongs to.
        core.computing = False
        thread = core.thread
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
            if self._ready:
                self._schedule_pass()
        finally:
            self._busy = False

    def _wake_from_sleep(self, thread: SimThread) -> None:
        if thread.state is ThreadState.SLEEPING:
            thread.pending_value = None
            self.make_ready(thread)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MulticoreScheduler {self.name} cores={len(self.cores)} "
            f"threads={len(self.threads)}>"
        )
