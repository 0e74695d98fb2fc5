"""Temporal exceptions and application-level handling.

A temporal exception is raised when a segment's end event does not occur
within ``d_mon`` of its start event.  Handling happens at *application
level* -- only the application can decide whether a late segment is a
fault -- through a user-provided :class:`ExceptionHandler` whose
``user_exception(context)`` either returns substitute data (recovery) or
``None`` (propagation).  The two dispatch routines below are literal
renditions of the paper's Algorithm 1 (remote) and Algorithm 2 (local):
both call the user handler; the remote path issues a receive event with
recovered data, the local path publishes it; otherwise the violation
propagates to the next segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.segments import Segment


@dataclass
class TemporalException:
    """A detected segment deadline violation."""

    segment: Segment
    #: Activation index n of the missed execution.
    activation: int
    #: Local time at which the monitored deadline nominally expired.
    deadline: int
    #: Local time at which the exception handler was entered.
    raised_at: int

    @property
    def detection_latency(self) -> int:
        """Delay from nominal deadline expiry to handler entry (ns).

        This is the quantity reported in the paper's Figs. 10 and 12.
        """
        return self.raised_at - self.deadline


@dataclass
class ExceptionContext:
    """Information passed to the user exception handler.

    ``misses`` is the argument *m* of Algorithms 1/2: the number of
    misses within the last k executions, so handlers can recover more
    aggressively as the (m,k) budget depletes.
    """

    exception: TemporalException
    misses: int
    #: Input data of the *current* activation, if available (e.g. the
    #: front-lidar cloud when the rear lidar is the one running late --
    #: the recovery source in the paper's Fig. 3 example).
    start_data: Any = None
    #: Data of the previous successful activation, if any (a common
    #: recovery source: re-send last known-good data).
    last_good_data: Any = None


class ExceptionHandler:
    """Application-specific exception handling policy.

    Subclass and override :meth:`user_exception`; return substitute data
    to recover, ``None`` to propagate.
    """

    def user_exception(self, context: ExceptionContext) -> Optional[Any]:
        """Decide recovery (return data) vs propagation (return None)."""
        return None

    #: CPU work (ns) the handler consumes on the monitor thread; its
    #: worst case must be covered by the segment's ``d_ex``.
    cost_ns: int = 20_000


class PropagateAlways(ExceptionHandler):
    """Never recover -- every temporal exception becomes a miss."""

    def user_exception(self, context: ExceptionContext) -> Optional[Any]:
        return None


class RecoverAlways(ExceptionHandler):
    """Always recover using a data factory (e.g. last good sample)."""

    def __init__(self, data_factory: Callable[[ExceptionContext], Any]):
        self.data_factory = data_factory

    def user_exception(self, context: ExceptionContext) -> Optional[Any]:
        return self.data_factory(context)


class RecoverUpTo(ExceptionHandler):
    """Recover only while the current miss pressure is below a threshold.

    Mirrors the paper's narrative that the handler receives the current
    miss count m and may stop recovering (e.g. front-lidar-only point
    clouds are acceptable occasionally but not persistently).
    """

    def __init__(
        self, max_misses: int, data_factory: Callable[[ExceptionContext], Any]
    ):
        self.max_misses = max_misses
        self.data_factory = data_factory

    def user_exception(self, context: ExceptionContext) -> Optional[Any]:
        if context.misses <= self.max_misses:
            return self.data_factory(context)
        return None


def handle_remote_exception(
    handler: ExceptionHandler,
    context: ExceptionContext,
    issue_receive: Callable[[Any], None],
    propagate_exception: Callable[[], None],
) -> bool:
    """Paper Algorithm 1: remote segment exception handling.

    Returns True on recovery (does not count as a miss), False on
    propagation (counts as a miss).
    """
    data = handler.user_exception(context)
    if data is not None:
        issue_receive(data)
        return True
    propagate_exception()
    return False


def handle_local_exception(
    handler: ExceptionHandler,
    context: ExceptionContext,
    publish: Callable[[Any], None],
) -> bool:
    """Paper Algorithm 2: local segment exception handling.

    Returns True on recovery, False on propagation.  Propagation needs
    no action: omitting the publication lets the next remote segment's
    monitor detect the missing message after its own timeout.
    """
    data = handler.user_exception(context)
    if data is not None:
        publish(data)
        return True
    return False
