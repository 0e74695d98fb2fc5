"""Unit tests for drifting clocks and PTP synchronization."""

import pytest

from repro.network import DriftingClock, PtpService
from repro.sim import Simulator, msec, sec, usec


class TestDriftingClock:
    def test_zero_drift_zero_offset_reads_global_time(self):
        sim = Simulator()
        clock = DriftingClock(sim)
        sim.schedule_at(msec(5), lambda: None)
        sim.run()
        assert clock.now() == msec(5)

    def test_static_offset(self):
        sim = Simulator()
        clock = DriftingClock(sim, offset_ns=usec(30))
        assert clock.now() == usec(30)

    def test_drift_accumulates(self):
        sim = Simulator()
        clock = DriftingClock(sim, drift_ppm=100.0)  # 100us per second
        sim.schedule_at(sec(1), lambda: None)
        sim.run()
        assert clock.offset == usec(100)
        assert clock.now() == sec(1) + usec(100)

    def test_negative_drift(self):
        sim = Simulator()
        clock = DriftingClock(sim, drift_ppm=-50.0)
        sim.schedule_at(sec(2), lambda: None)
        sim.run()
        assert clock.offset == -usec(100)

    def test_correct_resets_offset_and_drift_epoch(self):
        sim = Simulator()
        clock = DriftingClock(sim, drift_ppm=100.0)
        sim.schedule_at(sec(1), lambda: clock.correct(0))
        sim.run()
        assert clock.offset == 0
        # Drift resumes from the correction epoch.
        sim.schedule_at(sec(2), lambda: None)
        sim.run()
        assert clock.offset == usec(100)


class TestPtpService:
    def test_sync_bounds_error(self):
        sim = Simulator(seed=4)
        clocks = [
            DriftingClock(sim, offset_ns=msec(1), drift_ppm=50.0, name="a"),
            DriftingClock(sim, offset_ns=-msec(2), drift_ppm=-30.0, name="b"),
        ]
        ptp = PtpService(
            sim, clocks, sync_period=msec(100), residual_error=usec(2)
        )
        ptp.start()
        sim.run(until=sec(2))
        ptp.stop()
        bound = ptp.error_bound()
        for clock in clocks:
            assert abs(clock.offset) <= bound

    def test_error_bound_includes_drift_growth(self):
        sim = Simulator()
        clocks = [DriftingClock(sim, drift_ppm=100.0)]
        ptp = PtpService(sim, clocks, sync_period=msec(100), residual_error=usec(1))
        # 100 ppm over 100 ms -> 10us of growth + 1us residual.
        assert ptp.error_bound() == usec(11)

    def test_first_sync_is_immediate(self):
        sim = Simulator()
        clock = DriftingClock(sim, offset_ns=msec(5))
        ptp = PtpService(sim, [clock], sync_period=sec(1), residual_error=0)
        ptp.start()
        assert clock.offset == 0

    def test_rounds_counted(self):
        sim = Simulator()
        ptp = PtpService(sim, [DriftingClock(sim)], sync_period=msec(10))
        ptp.start()
        sim.run(until=msec(35))
        ptp.stop()
        assert ptp.rounds == 4  # t=0, 10, 20, 30

    def test_double_start_rejected(self):
        sim = Simulator()
        ptp = PtpService(sim, [], sync_period=msec(10))
        ptp.start()
        with pytest.raises(RuntimeError):
            ptp.start()

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PtpService(sim, [], sync_period=0)
        with pytest.raises(ValueError):
            PtpService(sim, [], sync_period=1, residual_error=-1)
