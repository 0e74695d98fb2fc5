"""Integration tests for the full perception stack (paper Fig. 1)."""

import numpy as np
import pytest

from repro.budgeting.feasibility import feasibility_violations
from repro.core import Outcome, TimeoutContext
from repro.core.chains import EventChain
from repro.perception import PerceptionStack, StackConfig
from repro.sim import BurstyGovernor, msec, usec

#: A rewritten in-place kernel that starts to warn fails here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

N_FRAMES = 25


@pytest.fixture(scope="module")
def monitored_stack():
    stack = PerceptionStack(StackConfig(seed=11))
    stack.run(n_frames=N_FRAMES)
    return stack


@pytest.fixture(scope="module")
def unmonitored_stack():
    stack = PerceptionStack(StackConfig(seed=11, monitoring=False))
    stack.run(n_frames=N_FRAMES)
    return stack


class TestPipelineFlow:
    def test_all_frames_flow_through(self, monitored_stack):
        stack = monitored_stack
        assert stack.lidar_front.frames_published == N_FRAMES
        assert stack.lidar_rear.frames_published == N_FRAMES
        assert stack.fusion.fused_count == N_FRAMES
        assert stack.classifier.classified_count == N_FRAMES
        assert stack.detector.detected_count == N_FRAMES
        assert stack.sink.frames_seen("objects") == list(range(N_FRAMES))
        assert stack.sink.frames_seen("ground_points") == list(range(N_FRAMES))

    def test_chains_validate_gap_free(self, monitored_stack):
        for chain in monitored_stack.chains.values():
            assert isinstance(chain, EventChain)
            assert len(chain) == 4
            assert feasibility_violations(chain) == []

    def test_objects_latency_exceeds_ground_latency(self, monitored_stack):
        """Objects pass through the extra detector stage."""
        objects = np.median(monitored_stack.monitored_latencies("s3_objects"))
        ground = np.median(monitored_stack.monitored_latencies("s3_ground"))
        assert objects > ground

    def test_all_segments_have_latency_records(self, monitored_stack):
        for name in ("s0_front", "s0_rear", "s1_front", "s1_rear",
                     "s2", "s3_objects", "s3_ground"):
            lats = monitored_stack.monitored_latencies(name)
            assert len(lats) >= N_FRAMES - 1, name


@pytest.mark.parametrize("n_frames", [0, -3])
def test_run_refuses_fewer_than_one_frame(n_frames):
    # Zero frames used to schedule the lidar stop at -100 ms and fail
    # deep in the simulator.
    stack = PerceptionStack(StackConfig(seed=11))
    with pytest.raises(ValueError, match="n_frames must be >= 1"):
        stack.run(n_frames=n_frames)
    assert stack.sim.now == 0


class TestChainAccounting:
    def test_benign_run_has_no_misses(self, monitored_stack):
        for name, runtime in monitored_stack.chain_runtimes.items():
            report = runtime.finalize(through_activation=N_FRAMES - 1)
            assert report.miss_count == 0, name
            assert report.mk_satisfied, name
            assert report.ok_count == 4 * N_FRAMES

    def test_detection_latencies_absent_without_exceptions(self, monitored_stack):
        for name in ("s3_objects", "s3_ground"):
            assert monitored_stack.exception_records(name) == []


class TestTraceReconstruction:
    def test_traced_latencies_match_monitored(self, monitored_stack):
        """The trace-based measurement path and the monitor agree."""
        for name in ("s3_objects", "s3_ground", "s1_front"):
            traced = monitored_stack.traced_latencies(name)
            monitored = monitored_stack.monitored_latencies(name)
            n = min(len(traced), len(monitored))
            assert n >= N_FRAMES - 1
            for a, b in zip(traced[:n], monitored[:n]):
                # Traces use global time, monitors local clocks: allow
                # the PTP error bound plus drift.
                assert abs(a - b) < usec(500)

    def test_unmonitored_run_produces_traces(self, unmonitored_stack):
        for name in ("s3_objects", "s3_ground"):
            lats = unmonitored_stack.traced_latencies(name)
            assert len(lats) >= N_FRAMES - 1
            assert all(lat > 0 for lat in lats)


class TestMonitoringUnderLoad:
    pytestmark = pytest.mark.slow

    def test_overloaded_ecu2_capped_by_monitor(self):
        """Heavy interference: monitored latencies never exceed
        d_mon + sub-ms overshoot (the Fig. 9 'with monitoring' claim)."""
        stack = PerceptionStack(StackConfig(
            seed=3,
            ecu2_governor=lambda: BurstyGovernor(
                nominal=1.0, slow_min=0.1, slow_max=0.3,
                mean_interval=msec(250), mean_dwell=msec(80),
            ),
        ))
        stack.run(n_frames=40)
        for name in ("s3_objects", "s3_ground"):
            lats = np.array(stack.monitored_latencies(name))
            deadline = stack.segments[name].d_mon
            assert (lats <= deadline + msec(1)).all(), name
        # And there actually were exceptions to cap.
        total_exceptions = sum(
            len(stack.exception_records(n)) for n in ("s3_objects", "s3_ground")
        )
        assert total_exceptions > 0

    def test_miss_propagation_consistency(self):
        """A miss in s3 marks the chain activation violated exactly once."""
        stack = PerceptionStack(StackConfig(
            seed=3,
            ecu2_governor=lambda: BurstyGovernor(
                nominal=1.0, slow_min=0.1, slow_max=0.3,
                mean_interval=msec(250), mean_dwell=msec(80),
            ),
        ))
        stack.run(n_frames=40)
        report = stack.chain_runtimes["front_objects"].finalize(
            through_activation=39
        )
        miss_frames = {
            a.activation for a in report.activations if a.violated
        }
        exc_frames = {
            e.activation for e in stack.exception_records("s3_objects")
        } | {
            e.activation for e in stack.exception_records("s2")
        } | {
            e.activation for e in stack.exception_records("s0_front")
        } | {
            e.activation for e in stack.exception_records("s1_front")
        }
        assert miss_frames <= exc_frames


class TestFaultInjection:
    def test_dropped_lidar_frame_raises_s0_exception(self):
        stack = PerceptionStack(StackConfig(seed=5))
        stack.lidar_front.fault_fn = lambda frame: None if frame == 10 else 0
        stack.run(n_frames=20)
        exc = stack.exception_records("s0_front")
        assert any(e.activation == 10 for e in exc)

    def test_delayed_rear_lidar_triggers_fusion_recovery(self):
        """The paper's Fig. 3 case: rear late -> fusion segment exception
        -> recovery publishes the front-only cloud."""
        stack = PerceptionStack(StackConfig(
            seed=5,
            fault_rear=lambda frame: msec(80) if frame == 10 else 0,
        ))
        stack.run(n_frames=20)
        # s0_rear detects the late remote arrival...
        s0_exc = stack.exception_records("s0_rear")
        assert any(e.activation == 10 for e in s0_exc)
        # Frame 10 still reaches the sink (recovered path or late rear).
        assert 10 in stack.sink.frames_seen("objects")
