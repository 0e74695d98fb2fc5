"""Unit tests for one-shot and periodic timers."""

import pytest

from repro.sim import PeriodicTimer, Simulator, Timer, msec


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(msec(5))
        sim.run()
        assert fired == [msec(5)]
        assert timer.fired_count == 1

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(msec(5))
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_restart_rearms(self):
        """Re-arming an armed timer replaces the pending expiry -- the
        pattern used by synchronization-based remote monitoring."""
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(msec(5))
        sim.schedule_at(msec(3), lambda: timer.start(msec(10)))
        sim.run()
        assert fired == [msec(13)]
        assert timer.fired_count == 1

    def test_start_at_absolute_time(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start_at(msec(9))
        sim.run()
        assert fired == [msec(9)]

    def test_timer_restart_from_callback(self):
        sim = Simulator()
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(msec(2))

        timer = Timer(sim, on_fire)
        timer.start(msec(2))
        sim.run()
        assert fired == [msec(2), msec(4), msec(6)]


class TestPeriodicTimer:
    def test_fires_periodically_without_drift(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, msec(10), lambda i: fired.append((i, sim.now)))
        timer.start()
        sim.run(until=msec(45))
        timer.stop()
        assert fired == [
            (0, 0),
            (1, msec(10)),
            (2, msec(20)),
            (3, msec(30)),
            (4, msec(40)),
        ]

    def test_offset_shifts_first_expiry(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, msec(10), lambda i: fired.append(sim.now), offset=msec(3))
        timer.start()
        sim.run(until=msec(25))
        timer.stop()
        assert fired == [msec(3), msec(13), msec(23)]

    def test_stop_halts_firing(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, msec(10), lambda i: fired.append(sim.now))
        timer.start()
        sim.schedule_at(msec(25), timer.stop)
        sim.run(until=msec(100))
        assert fired == [0, msec(10), msec(20)]

    def test_jitter_stays_within_bound(self):
        sim = Simulator(seed=3)
        fired = []
        timer = PeriodicTimer(
            sim, msec(10), lambda i: fired.append(sim.now), jitter_ns=msec(2)
        )
        timer.start()
        sim.run(until=msec(200))
        timer.stop()
        assert len(fired) >= 18
        for i, t in enumerate(fired):
            nominal = i * msec(10)
            assert nominal <= t <= nominal + msec(2)

    def test_double_start_rejected(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, msec(10), lambda i: None)
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_invalid_period_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0, lambda i: None)
