"""Coverage for smaller behaviours: fusion eviction, lidar fault
injection, stack configuration knobs."""

import pytest

from repro.dds import DdsDomain
from repro.perception import PerceptionStack, StackConfig
from repro.perception.fusion import FusionService
from repro.perception.lidar_driver import LidarDriver, pointcloud_topic
from repro.perception.pointcloud import PointCloud
from repro.perception.scenario import DrivingScenario, ScenarioConfig
from repro.ros import Node
from repro.sim import Ecu, Simulator, msec, usec


class TestFusionEviction:
    def test_unpaired_frames_evicted(self):
        sim = Simulator(seed=1)
        ecu = Ecu(sim, "ecu1", n_cores=2)
        domain = DdsDomain(sim, local_latency=usec(10))
        node = Node(domain, ecu, "fusion", priority=30)
        src = Node(domain, ecu, "src", priority=40)
        t_front = pointcloud_topic("f")
        t_rear = pointcloud_topic("r")
        t_out = pointcloud_topic("o")
        fusion = FusionService(node, t_front, t_rear, t_out, max_pending=4)
        pub_front = src.create_publisher(t_front)
        # Only front clouds arrive: the pending map must stay bounded.
        for i in range(20):
            sim.schedule_at(
                msec(1 + i),
                lambda i=i: pub_front.publish(
                    PointCloud.empty(frame_index=i, stamp=sim.now)
                ),
            )
        sim.run(until=msec(40))
        # 20 offered, 4 may wait: the other 16 were evicted.
        assert fusion.evicted_count == 16
        assert fusion.fused_count == 0


class TestLidarDriver:
    def test_fault_delay_and_drop_counted(self):
        sim = Simulator(seed=1)
        ecu = Ecu(sim, "lidar", n_cores=1)
        domain = DdsDomain(sim)
        node = Node(domain, ecu, "driver", priority=40)
        scenario = DrivingScenario(ScenarioConfig(seed=1))
        topic = pointcloud_topic("points")
        driver = LidarDriver(
            node, scenario, "front", topic, period=msec(50),
            fault_fn=lambda f: None if f == 1 else 0,
        )
        driver.start()
        sim.run(until=msec(170))
        driver.stop()
        assert driver.frames_published == 3  # frames 0, 2, 3
        assert driver.frames_dropped == 1

    def test_stop_halts_publication(self):
        sim = Simulator(seed=1)
        ecu = Ecu(sim, "lidar", n_cores=1)
        domain = DdsDomain(sim)
        node = Node(domain, ecu, "driver", priority=40)
        scenario = DrivingScenario(ScenarioConfig(seed=1))
        driver = LidarDriver(
            node, scenario, "front", pointcloud_topic("p"), period=msec(50)
        )
        driver.start()
        sim.schedule_at(msec(60), driver.stop)
        sim.run(until=msec(500))
        assert driver.frames_published == 2


class TestStackKnobs:
    def test_monitoring_disabled_builds_no_monitors(self):
        stack = PerceptionStack(StackConfig(seed=1, monitoring=False))
        assert stack.monitor_ecu1 is None
        assert stack.local_runtimes == {}
        assert stack.remote_monitors == {}
        with pytest.raises(KeyError):
            stack.monitored_latencies("s3_objects")

    def test_per_segment_monitor_threads_created(self):
        stack = PerceptionStack(StackConfig(
            seed=1, monitor_thread_per_segment=True
        ))
        assert len(stack._extra_monitors) == 4  # one per local segment

    def test_custom_handler_override(self):
        from repro.core import PropagateAlways

        marker = PropagateAlways()
        stack = PerceptionStack(StackConfig(
            seed=1, handlers={"s1_front": marker}
        ))
        assert stack.local_runtimes["s1_front"].handler is marker

    def test_exception_records_for_unmonitored_segment(self):
        stack = PerceptionStack(StackConfig(seed=1))
        assert stack.exception_records("does_not_exist") == []

    def test_chains_cover_all_segments(self):
        stack = PerceptionStack(StackConfig(seed=1))
        covered = set()
        for chain in stack.chains.values():
            covered |= {segment.name for segment in chain.segments}
        assert covered == set(stack.segments)
