"""Drifting clocks and PTP-style time synchronization.

The paper's synchronization-based remote monitoring interprets the sender
timestamp carried in each DDS sample against the *receiver's* clock,
which is valid only because modern vehicle networks synchronize ECU
clocks via PTP (IEEE 1588) with a bounded error epsilon.  This module
provides exactly that abstraction:

- :class:`DriftingClock` -- a local clock with an offset that drifts at a
  constant rate (ppm) between corrections.
- :class:`PtpService` -- periodic sync rounds that snap each slave's
  offset back to within ``residual_error`` of the master.

Between syncs the offset error grows by ``drift_ppm * sync_period``;
the effective bound used by monitors is therefore
``epsilon = residual_error + drift_ppm * 1e-6 * sync_period``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.kernel import Simulator


class DriftingClock:
    """A local clock: ``local = global + offset0 + drift * (global - t_sync)``.

    ``drift_ppm`` is the frequency error in parts-per-million; 10 ppm
    accumulates 10 microseconds of error per second.
    """

    def __init__(
        self,
        sim: Simulator,
        offset_ns: int = 0,
        drift_ppm: float = 0.0,
        name: str = "clock",
    ):
        self.sim = sim
        self.name = name
        self.drift_ppm = float(drift_ppm)
        self._offset0 = int(offset_ns)
        self._sync_time = 0
        self.sync_count = 0

    def now(self) -> int:
        """Current local time in ns."""
        # _current_offset(), inlined: every monitored event is stamped here.
        now = self.sim.now
        return now + self._offset0 + int(
            (now - self._sync_time) * self.drift_ppm * 1e-6
        )

    def _current_offset(self) -> int:
        elapsed = self.sim.now - self._sync_time
        return self._offset0 + int(elapsed * self.drift_ppm * 1e-6)

    @property
    def offset(self) -> int:
        """Current deviation from global time in ns."""
        return self._current_offset()

    def correct(self, new_offset_ns: int) -> None:
        """Snap the clock offset (called by the PTP service)."""
        self._offset0 = int(new_offset_ns)
        self._sync_time = self.sim.now
        self.sync_count += 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DriftingClock {self.name} offset={self.offset}ns drift={self.drift_ppm}ppm>"


class PtpService:
    """Periodic clock synchronization with bounded residual error.

    Every ``sync_period`` ns each slave clock's offset is corrected to a
    value drawn uniformly from ``[-residual_error, +residual_error]``
    (the master is assumed to hold global time; delay-request asymmetry
    and servo noise are folded into the residual).
    """

    def __init__(
        self,
        sim: Simulator,
        slaves: List[DriftingClock],
        sync_period: int,
        residual_error: int = 0,
        name: str = "ptp",
    ):
        if sync_period <= 0:
            raise ValueError("sync period must be positive")
        if residual_error < 0:
            raise ValueError("residual error must be non-negative")
        self.sim = sim
        self.slaves = list(slaves)
        self.sync_period = int(sync_period)
        self.residual_error = int(residual_error)
        self.name = name
        self.rounds = 0
        self._running = False

    def start(self) -> None:
        """Run the first sync immediately and then periodically."""
        if self._running:
            raise RuntimeError("PTP service already running")
        self._running = True
        self._round()

    def stop(self) -> None:
        """Stop scheduling further sync rounds."""
        self._running = False

    def error_bound(self, max_drift_ppm: Optional[float] = None) -> int:
        """Worst-case clock error between syncs (the monitors' epsilon)."""
        if max_drift_ppm is None:
            max_drift_ppm = max(
                (abs(c.drift_ppm) for c in self.slaves), default=0.0
            )
        growth = int(self.sync_period * max_drift_ppm * 1e-6)
        return self.residual_error + growth

    def _round(self) -> None:
        if not self._running:
            return
        rng = self.sim.rng(f"ptp:{self.name}")
        for clock in self.slaves:
            if self.residual_error > 0:
                residual = int(
                    rng.integers(-self.residual_error, self.residual_error + 1)
                )
            else:
                residual = 0
            clock.correct(residual)
        self.rounds += 1
        self.sim.schedule_after(self.sync_period, self._round, label="ptp:round")
