"""Generator-based simulated threads and their syscall protocol.

A simulated thread body is a Python generator that *yields* syscall
objects to the scheduler:

``Compute(duration)``
    Consume CPU time.  Preemptible: a higher-priority thread can take the
    core and the remaining work resumes later.  ``duration`` is expressed
    in nanoseconds of work at nominal core speed 1.0; a core running at
    speed 0.5 (frequency scaling) takes twice as long.

``Sleep(duration)``
    Block without occupying a core for *duration* nanoseconds.

``WaitSem(semaphore, timeout=None)``
    Block on a counting semaphore.  The yield expression evaluates to
    ``True`` if the semaphore was acquired and ``False`` on timeout --
    mirroring the ``sem_timedwait()`` the paper's monitor thread uses.

``Yield()``
    A pure rescheduling point (cooperative yield).

Everything a thread does *between* yields happens in zero simulated time,
which models the abstraction that instrumentation code paths are costed
explicitly via ``Compute`` where they matter.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Iterator, Optional, Union


class Syscall:
    """Base class for requests a thread yields to the scheduler.

    The four concrete syscalls below are final: the scheduler
    dispatches on their exact type.
    """

    __slots__ = ()


class Compute(Syscall):
    """Consume *duration* nanoseconds of CPU work (at nominal speed)."""

    __slots__ = ("duration",)

    def __init__(self, duration: int) -> None:
        if duration < 0:
            raise ValueError(f"negative compute duration {duration}")
        self.duration = int(duration)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Compute({self.duration})"


class Sleep(Syscall):
    """Block off-core for *duration* nanoseconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: int) -> None:
        if duration < 0:
            raise ValueError(f"negative sleep duration {duration}")
        self.duration = int(duration)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Sleep({self.duration})"


class WaitSem(Syscall):
    """Block on a semaphore, optionally with a timeout (``sem_timedwait``)."""

    __slots__ = ("semaphore", "timeout")

    def __init__(self, semaphore: Any, timeout: Optional[int] = None) -> None:
        if timeout is not None and timeout < 0:
            raise ValueError(f"negative timeout {timeout}")
        self.semaphore = semaphore
        self.timeout = timeout

    def __repr__(self) -> str:  # pragma: no cover
        return f"WaitSem({self.semaphore}, timeout={self.timeout})"


class Yield(Syscall):
    """Voluntary rescheduling point."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "Yield()"


class ThreadState(enum.Enum):
    """Lifecycle states of a :class:`SimThread`."""

    NEW = "new"
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    SLEEPING = "sleeping"
    DONE = "done"


ThreadBody = Union[
    Generator[Syscall, Any, None],
    Callable[["SimThread"], Generator[Syscall, Any, None]],
]


class SimThread:
    """A schedulable simulated thread.

    Parameters
    ----------
    name:
        Identifier used in traces and reprs.
    body:
        Either a generator, or a callable taking the thread itself and
        returning a generator (handy when the body wants to know which
        thread object hosts it).
    priority:
        Fixed scheduling priority; **larger numbers mean higher priority**
        (like POSIX ``SCHED_FIFO``).
    """

    _ids = iter(range(1, 1 << 62))

    def __init__(
        self,
        name: str,
        body: ThreadBody,
        priority: int = 0,
    ) -> None:
        self.tid = next(SimThread._ids)
        self.name = name
        self.priority = priority
        if callable(body) and not isinstance(body, Iterator):
            self._gen = body(self)
        else:
            self._gen = body  # type: ignore[assignment]
        self.state = ThreadState.NEW
        #: Value the scheduler delivers to the generator when it next
        #: resumes it (the result of the syscall the thread yielded).
        self.pending_value: Any = None
        #: Remaining compute work (ns at speed 1.0) if preempted mid-compute.
        self.remaining_work: int = 0
        #: Core index the thread currently runs on, or None.
        self.core_index: Optional[int] = None
        #: Scheduler owning this thread (set on scheduler.add_thread).
        self.scheduler: Any = None
        #: Cumulative statistics.
        self.total_cpu_time: int = 0
        self.activations: int = 0
        self.preemptions: int = 0
        #: Span context carried across suspensions (span tracing only;
        #: restored by the scheduler before every generator resumption).
        self.span_ctx: Any = None

    @property
    def done(self) -> bool:
        """True once the thread body has run to completion."""
        return self.state is ThreadState.DONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimThread {self.name} tid={self.tid} prio={self.priority} "
            f"{self.state.value}>"
        )
