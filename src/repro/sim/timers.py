"""One-shot and periodic timers.

Timer callbacks fire in *kernel context* (zero simulated time), which
models a hardware timer / hrtimer interrupt.  Code that needs the paper's
thread-context semantics -- e.g. a timeout routine that must first be
scheduled on a CPU, the very effect measured in the paper's Fig. 12 --
should have the callback post a semaphore that a simulated thread waits
on, so the scheduling latency is modelled explicitly.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.kernel import ScheduledEvent, Simulator


class Timer:
    """A restartable one-shot timer.

    ``start`` arms (or re-arms) the timer; ``cancel`` disarms it.  The
    callback receives no arguments.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None], name: str = "timer"):
        self.sim = sim
        self.callback = callback
        self.name = name
        self._label = f"timer:{name}"
        self._event: Optional[ScheduledEvent] = None
        self.fired_count = 0

    @property
    def armed(self) -> bool:
        """True while the timer is pending."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay: int) -> None:
        """Arm the timer to fire *delay* ns from now (re-arms if pending)."""
        self.start_at(self.sim.now + delay)

    def start_at(self, time: int) -> None:
        """Arm the timer to fire at absolute *time* (re-arms if pending)."""
        event = self._event
        if event is None:
            self._event = self.sim.schedule_at(
                time, self._fire, label=self._label
            )
        else:
            # Rearm through the kernel primitive: it reuses the handle
            # with no allocation.
            self._event = self.sim.reschedule(event, time)

    def cancel(self) -> None:
        """Disarm the timer if pending."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.fired_count += 1
        self.callback()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Timer {self.name} armed={self.armed}>"


class PeriodicTimer:
    """A drift-free periodic timer.

    Expiries are computed from the start epoch (``t0 + n * period``) so
    callback latency never accumulates into period drift -- matching the
    paper's assumption of strictly periodic chain activation.
    """

    def __init__(
        self,
        sim: Simulator,
        period: int,
        callback: Callable[[int], Any],
        name: str = "ptimer",
        offset: int = 0,
        jitter_ns: int = 0,
    ):
        if period <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.period = period
        self.callback = callback
        self.name = name
        self._label = f"ptimer:{name}"
        self.offset = offset
        self.jitter_ns = jitter_ns
        #: Jitter draws come from the timer's own stream.
        self._rng_stream = f"ptimer:{name}"
        self._epoch: Optional[int] = None
        self._index = 0
        self._event: Optional[ScheduledEvent] = None

    def start(self) -> None:
        """Begin firing; the first expiry is ``now + offset``."""
        if self._event is not None:
            raise RuntimeError(f"{self.name} already running")
        self._epoch = self.sim.now + self.offset
        self._index = 0
        self._arm()

    def stop(self) -> None:
        """Stop firing; a pending expiry is cancelled."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _arm(self) -> None:
        assert self._epoch is not None
        nominal = self._epoch + self._index * self.period
        when = nominal
        if self.jitter_ns > 0:
            rng = self.sim.rng(self._rng_stream)
            when = nominal + int(rng.integers(0, self.jitter_ns + 1))
        when = max(when, self.sim.now)
        event = self._event
        if event is None:
            self._event = self.sim.schedule_at(
                when, self._fire, label=self._label
            )
        else:
            # The previous expiry just fired; reuse its handle.
            self._event = self.sim.reschedule(event, when)

    def _fire(self) -> None:
        index = self._index
        self._index += 1
        self._arm()
        self.callback(index)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PeriodicTimer {self.name} period={self.period} n={self._index}>"
