"""Tests for the store-and-forward switch and emergent queueing jitter."""

import numpy as np
import pytest

from repro.network import BackgroundTraffic, EthernetSwitch, Frame
from repro.sim import Simulator, msec, usec


def frame(dst="ecu1", size=1250):
    return Frame(payload=None, size_bytes=size, src="src", dst=dst)


class TestSwitchBasics:
    def test_forward_delivers_after_tx_and_propagation(self):
        sim = Simulator()
        switch = EthernetSwitch(sim, port_rate_bps=100e6, propagation_delay=usec(5))
        switch.attach("ecu1")
        arrivals = []
        # 1250 bytes at 100 Mbit/s = 100 us serialization + 5 us prop.
        switch.forward(frame(), lambda f: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [usec(105)]

    def test_unknown_destination_raises(self):
        sim = Simulator()
        switch = EthernetSwitch(sim)
        with pytest.raises(KeyError):
            switch.forward(frame(dst="nowhere"), lambda f: None)

    def test_duplicate_port_rejected(self):
        sim = Simulator()
        switch = EthernetSwitch(sim)
        switch.attach("a")
        with pytest.raises(ValueError):
            switch.attach("a")

    def test_queueing_serializes_frames(self):
        sim = Simulator()
        switch = EthernetSwitch(sim, port_rate_bps=100e6, propagation_delay=0)
        switch.attach("ecu1")
        arrivals = []
        for _ in range(3):
            switch.forward(frame(), lambda f: arrivals.append(sim.now))
        sim.run()
        # Each 1250B frame takes 100us on the wire; they queue.
        assert arrivals == [usec(100), usec(200), usec(300)]
        assert switch.port("ecu1").peak_queue == 3

    def test_tail_drop_when_queue_full(self):
        sim = Simulator()
        switch = EthernetSwitch(sim, queue_capacity=2)
        switch.attach("ecu1")
        results = [switch.forward(frame(), lambda f: None) for _ in range(4)]
        assert results == [True, True, False, False]
        assert switch.port("ecu1").dropped == 2

    def test_ports_are_independent(self):
        sim = Simulator()
        switch = EthernetSwitch(sim, port_rate_bps=100e6, propagation_delay=0)
        switch.attach("a")
        switch.attach("b")
        arrivals = {}
        switch.forward(frame(dst="a"), lambda f: arrivals.setdefault("a", sim.now))
        switch.forward(frame(dst="b"), lambda f: arrivals.setdefault("b", sim.now))
        sim.run()
        # No cross-port queueing: both arrive at 100us.
        assert arrivals == {"a": usec(100), "b": usec(100)}


class TestBackgroundTraffic:
    def test_cross_traffic_inflates_queueing_delay(self):
        """Emergent J_R: the same periodic flow sees higher and more
        variable delay when background traffic loads its egress port."""

        def measure(utilization):
            sim = Simulator(seed=9)
            switch = EthernetSwitch(sim, port_rate_bps=100e6, propagation_delay=0)
            switch.attach("ecu1")
            delays = []
            if utilization > 0:
                bg = BackgroundTraffic(switch, "ecu1", utilization=utilization)
                bg.start()
            for i in range(100):
                send_at = msec(1) + i * msec(10)
                sim.schedule_at(
                    send_at,
                    lambda t0=send_at: switch.forward(
                        frame(size=1250),
                        lambda f, t0=t0: delays.append(sim.now - t0),
                    ),
                )
            sim.run(until=msec(1200))
            if utilization > 0:
                bg.stop()
            return delays

        idle = measure(0)
        loaded = measure(0.8)
        assert len(idle) == len(loaded) == 100
        # Unloaded: constant serialization delay.
        assert max(idle) - min(idle) == 0
        # Loaded: queueing behind cross traffic -> jitter appears.
        assert np.mean(loaded) > np.mean(idle)
        assert max(loaded) - min(loaded) > usec(50)

    def test_invalid_utilization(self):
        sim = Simulator()
        switch = EthernetSwitch(sim)
        with pytest.raises(ValueError):
            BackgroundTraffic(switch, "x", utilization=1.5)
