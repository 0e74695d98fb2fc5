"""Synchronization primitives for simulated threads.

The paper's local monitor blocks on a POSIX semaphore with
``sem_timedwait()`` and is posted by instrumented publisher/subscriber
code.  :class:`Semaphore` reproduces those semantics: waiters block with
an optional timeout and are woken highest-priority-first, and a post by a
low-priority thread immediately hands the CPU to a higher-priority waiter
(via the scheduler's eager rescheduling).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.kernel import ScheduledEvent, Simulator
from repro.sim.threads import SimThread, ThreadState


class _Waiter:
    __slots__ = ("thread", "timeout_event")

    def __init__(self, thread: SimThread, timeout_event: Optional[ScheduledEvent]):
        self.thread = thread
        self.timeout_event = timeout_event


class Semaphore:
    """Counting semaphore with timed wait (``sem_timedwait`` semantics).

    The count starts at zero.  Waiters are woken in priority order
    (highest first), FIFO among equal priorities.  The yield-expression
    result of ``WaitSem`` is ``True`` on acquisition and ``False`` on
    timeout.
    """

    def __init__(self, sim: Simulator, name: str = "sem"):
        self.sim = sim
        self.name = name
        self._count = 0
        self._waiters: List[_Waiter] = []
        #: One reusable waiter record (and timeout event handle) per
        #: thread that ever blocked here: a thread waits at most once at
        #: a time, and a handful of threads share any one semaphore.
        self._records: Dict[SimThread, _Waiter] = {}
        #: Statistics: number of posts that found no waiter.
        self.posts = 0
        self.timeouts = 0

    @property
    def count(self) -> int:
        """Current semaphore value (0 while threads are blocked)."""
        return self._count

    # -- protocol used by the scheduler's WaitSem handling ---------------
    def _try_acquire(self) -> bool:
        if self._count > 0:
            self._count -= 1
            return True
        return False

    def _enqueue(self, thread: SimThread, timeout: Optional[int]) -> None:
        waiter = self._records.get(thread)
        if waiter is None:
            waiter = self._records[thread] = _Waiter(thread, None)
        if timeout is not None:
            sim = self.sim
            handle = waiter.timeout_event
            if handle is None:
                handle = sim.schedule_after(timeout, self._on_timeout, waiter)
            else:
                # Re-arm the thread's one handle: no allocation, and one
                # sequence number consumed, as a fresh event would.
                handle = sim.reschedule(handle, sim.now + timeout)
            waiter.timeout_event = handle
        self._waiters.append(waiter)

    # -- public API ------------------------------------------------------
    def post(self) -> None:
        """Release the semaphore, waking the best waiter if any."""
        self.posts += 1
        waiters = self._waiters
        if not waiters:
            self._count += 1
            return
        waiter = waiters.pop() if len(waiters) == 1 else self._pop_best_waiter()
        if waiter.timeout_event is not None:
            # A no-op on the spent handle of an earlier timed wait.
            waiter.timeout_event.cancel()
        thread = waiter.thread
        thread.pending_value = True
        thread.scheduler.make_ready(thread)

    def _pop_best_waiter(self) -> _Waiter:
        best_index = 0
        for i, waiter in enumerate(self._waiters[1:], start=1):
            if waiter.thread.priority > self._waiters[best_index].thread.priority:
                best_index = i
        return self._waiters.pop(best_index)

    def _on_timeout(self, waiter: _Waiter) -> None:
        if waiter not in self._waiters:
            return
        self._waiters.remove(waiter)
        self.timeouts += 1
        thread = waiter.thread
        if thread.state is ThreadState.BLOCKED:
            thread.pending_value = False
            thread.scheduler.make_ready(thread)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Semaphore {self.name} count={self._count} waiting={self.waiting}>"
