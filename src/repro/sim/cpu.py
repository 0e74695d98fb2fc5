"""ECUs, cores and frequency governors.

The paper's evaluation explicitly enables thread migration and frequency
scaling ("For representing performance and power optimizations, we allowed
thread migration between cores and frequency scaling") -- these are the
main sources of the heavy latency tail its Fig. 9 records.  The governors
here reproduce those effects:

- :class:`ConstantGovernor` -- fixed speed (the "performance" governor).
- :class:`BurstyGovernor` -- random speed excursions modelling thermal
  throttling and co-running interference; produces the long tail.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.kernel import Simulator
from repro.sim.scheduler import Core, MulticoreScheduler
from repro.sim.threads import SimThread


class FrequencyGovernor:
    """Base class: per-core speed policy notified of busy/idle edges."""

    def attach(self, core: Core, sim: Simulator) -> None:
        """Bind the governor to *core*; called once by the ECU."""
        self.core = core
        self.sim = sim

    def on_core_busy(self, core: Core) -> None:
        """Called when the core transitions idle -> busy."""

    def on_core_idle(self, core: Core) -> None:
        """Called when the core transitions busy -> idle."""


class ConstantGovernor(FrequencyGovernor):
    """Pin the core at a fixed speed (Linux "performance" governor)."""

    def __init__(self, speed: float = 1.0):
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.speed = speed

    def attach(self, core: Core, sim: Simulator) -> None:
        super().attach(core, sim)
        core.set_speed(self.speed)


#: Random stream of a bursty governor, one per core (``:<index>``).
BURSTY_STREAM = "governor:bursty"


class BurstyGovernor(FrequencyGovernor):
    """Random speed excursions (thermal throttling / interference).

    The core normally runs at ``nominal`` speed; at exponentially
    distributed intervals it drops to a random speed in
    ``[slow_min, slow_max]`` for an exponentially distributed dwell time.
    """

    def __init__(
        self,
        nominal: float = 1.0,
        slow_min: float = 0.1,
        slow_max: float = 0.5,
        mean_interval: int = 200_000_000,
        mean_dwell: int = 30_000_000,
    ):
        if not (0 < slow_min <= slow_max <= nominal):
            raise ValueError("need 0 < slow_min <= slow_max <= nominal")
        self.nominal = nominal
        self.slow_min = slow_min
        self.slow_max = slow_max
        self.mean_interval = mean_interval
        self.mean_dwell = mean_dwell

    def attach(self, core: Core, sim: Simulator) -> None:
        super().attach(core, sim)
        core.set_speed(self.nominal)
        self._schedule_excursion()

    def _schedule_excursion(self) -> None:
        rng = self.sim.rng(f"{BURSTY_STREAM}:{self.core.index}")
        delay = max(1, int(rng.exponential(self.mean_interval)))
        self.sim.schedule_after(delay, self._begin_excursion, label="governor:burst")

    def _begin_excursion(self) -> None:
        # Same stream name as _schedule_excursion: rng() caches per name,
        # so both methods draw from one generator in arrival order.
        rng = self.sim.rng(f"{BURSTY_STREAM}:{self.core.index}")
        slow = float(rng.uniform(self.slow_min, self.slow_max))
        dwell = max(1, int(rng.exponential(self.mean_dwell)))
        self.core.set_speed(slow)
        self.sim.schedule_after(dwell, self._end_excursion, label="governor:burst-end")

    def _end_excursion(self) -> None:
        self.core.set_speed(self.nominal)
        self._schedule_excursion()


class PerfectClock:
    """A clock that reads exactly the simulated (global) time."""

    def __init__(self, sim: Simulator):
        self._sim = sim

    def now(self) -> int:
        """Current local time in nanoseconds (== global time)."""
        return self._sim.now


class Ecu:
    """An electronic control unit: cores + scheduler + local clock.

    ``ecu.now()`` reads the ECU-local clock, which may differ from
    global sim time.

    Parameters
    ----------
    sim:
        Simulation kernel.
    name:
        Identifier (e.g. ``"ecu1"``).
    n_cores:
        Number of cores (the paper's testbed was a quad-core i5);
        threads migrate between them, as in the paper.
    governor_factory:
        Callable producing one :class:`FrequencyGovernor` per core;
        ``None`` leaves all cores at speed 1.0.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        n_cores: int = 4,
        governor_factory: Optional[Callable[[], FrequencyGovernor]] = None,
    ):
        self.sim = sim
        self.name = name
        self.scheduler = MulticoreScheduler(sim, n_cores=n_cores, name=name)
        if governor_factory is not None:
            for core in self.scheduler.cores:
                governor = governor_factory()
                core.governor = governor
                governor.attach(core, sim)
        self.clock = PerfectClock(sim)

    @property
    def clock(self):
        """Local clock; replaced by a drifting PTP clock in network setups."""
        return self._clock

    @clock.setter
    def clock(self, clock) -> None:
        self._clock = clock
        # ``ecu.now()`` is the clock's own bound method: the monitors
        # stamp every event with it, and a forwarding method would
        # double the calls.
        self.now = clock.now

    def spawn(self, name: str, body, priority: int = 0) -> SimThread:
        """Create and start a thread on this ECU."""
        return self.scheduler.spawn(f"{self.name}.{name}", body, priority=priority)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Ecu {self.name} cores={len(self.scheduler.cores)}>"
