"""Unit tests for ECUs and frequency governors."""

import pytest

from repro.sim import (
    BurstyGovernor,
    Compute,
    ConstantGovernor,
    Ecu,
    Simulator,
    msec,
    sec,
)


class TestConstantGovernor:
    def test_sets_speed_on_attach(self):
        sim = Simulator()
        ecu = Ecu(sim, "e", n_cores=1, governor_factory=lambda: ConstantGovernor(0.5))
        assert ecu.scheduler.cores[0].speed == 0.5

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            ConstantGovernor(0)


class TestBurstyGovernor:
    def test_speed_excursions_slow_down_work(self):
        sim = Simulator(seed=7)
        ecu = Ecu(
            sim,
            "e",
            n_cores=1,
            governor_factory=lambda: BurstyGovernor(
                nominal=1.0,
                slow_min=0.1,
                slow_max=0.2,
                mean_interval=msec(5),
                mean_dwell=msec(5),
            ),
        )
        latencies = []

        def body(_):
            for _i in range(200):
                start = sim.now
                yield Compute(msec(1))
                latencies.append(sim.now - start)

        ecu.spawn("t", body)
        # The governor keeps scheduling excursions forever, so bound the run.
        sim.run(until=sec(10))
        assert len(latencies) == 200
        # Some executions hit an excursion and took noticeably longer.
        assert max(latencies) > 2 * min(latencies)
        assert min(latencies) == msec(1)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BurstyGovernor(nominal=1.0, slow_min=0.5, slow_max=0.4)


class TestEcuComposition:
    def test_each_core_gets_its_own_governor(self):
        sim = Simulator()
        governors = []

        def factory():
            governor = ConstantGovernor(0.8)
            governors.append(governor)
            return governor

        Ecu(sim, "e", n_cores=4, governor_factory=factory)
        assert len(governors) == 4
        assert len(set(id(g) for g in governors)) == 4
