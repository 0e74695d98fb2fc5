"""Fault-injection primitives.

A :class:`FaultInjector` arms itself against a built (not yet running)
:class:`~repro.perception.stack.PerceptionStack`: it installs hooks or
schedules state changes on the simulation clock, and records every
physical action it takes as an
:class:`~repro.network.injection.Injection` so oracles can correlate
monitor reports with ground truth.

All injectors are deterministic: their activity windows are expressed in
chain activations (frames) or absolute simulation time, and any
randomness they need comes from the simulator's named seeded streams --
two campaign runs with the same seed produce bit-identical traces.
"""

from __future__ import annotations

from typing import List, Optional

from repro.network.injection import Injection


class FaultInjector:
    """Base class for all injectors.

    Subclasses override :meth:`arm`; it is called exactly once, after
    the stack is built and before ``stack.run``.  Everything an injector
    does must be either an immediate hook installation or an event
    scheduled via ``stack.sim`` -- never direct mutation of running
    state from outside the event loop.
    """

    #: Fault class identifier (used by campaign coverage accounting).
    kind: str = "fault"

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__
        self.injections: List[Injection] = []
        self._armed = False

    def arm(self, stack) -> None:
        """Install the fault on *stack* (exactly once, pre-run)."""
        if self._armed:
            raise RuntimeError(f"{self.name} is already armed")
        self._armed = True
        self._arm(stack)

    def _arm(self, stack) -> None:
        raise NotImplementedError

    def clock_error_bound(self) -> int:
        """Worst extra clock desync (ns) this fault can cause.

        Folded into the soundness oracle's epsilon: a monitor using a
        desynchronized clock may legitimately report a miss that global
        time disagrees with by up to this much.
        """
        return 0

    def record(self, injection: Injection) -> None:
        """Archive one physical action (called by subclasses)."""
        self.injections.append(injection)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name} armed={self._armed}>"


def frame_window_ns(stack, first_frame: int, last_frame: int) -> tuple:
    """[start, end) simulation-time window covering the given frames.

    Frame n is published at ``n * period`` (plus capture time), so the
    window opens at the first frame's nominal activation and closes at
    the activation after the last.
    """
    period = stack.config.period
    return (first_frame * period, (last_frame + 1) * period)
