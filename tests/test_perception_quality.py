"""End-to-end perception quality: the pipeline's outputs must track the
scenario's ground truth, not merely flow.

These tests catch silent numeric regressions (a broken ground filter or
clustering would still 'publish something' and pass the flow tests)."""

import numpy as np
import pytest

from repro.perception import (
    DrivingScenario,
    ScenarioConfig,
    classify_ground,
    euclidean_clusters,
)
from repro.perception.clustering import boxes_from_clusters
from repro.perception.stack import PerceptionStack, StackConfig


class TestDetectionQuality:
    pytestmark = pytest.mark.slow

    def test_cluster_count_tracks_scene_objects(self):
        """On fused frames, the number of detected clusters approximates
        the number of objects both lidars can see."""
        scenario = DrivingScenario(ScenarioConfig(
            seed=8, spawn_prob=0.6, max_objects=6
        ))
        hits = 0
        total = 0
        for frame in range(10, 40):
            front = scenario.lidar_frame(frame, "front")
            rear = scenario.lidar_frame(frame, "rear")
            fused = front.concatenate(rear)
            truth = scenario.object_count
            mask = classify_ground(fused, sensor_height=1.8)
            nonground = fused.select(~mask)
            clusters = euclidean_clusters(nonground.xyz, eps=1.2, min_points=8)
            total += 1
            # Allow fuzz: distant objects merge/split occasionally.
            if truth == 0:
                hits += int(len(clusters) <= 1)
            else:
                hits += int(abs(len(clusters) - truth) <= max(2, truth // 2))
        assert hits / total > 0.6

    def test_boxes_have_physical_dimensions(self):
        scenario = DrivingScenario(ScenarioConfig(seed=8, spawn_prob=0.9))
        for frame in range(5, 25):
            cloud = scenario.lidar_frame(frame, "front")
            mask = classify_ground(cloud, sensor_height=1.8)
            nonground = cloud.select(~mask)
            clusters = euclidean_clusters(nonground.xyz, eps=1.2, min_points=8)
            for box in boxes_from_clusters(nonground.xyz, clusters):
                assert 0 < box.x_max - box.x_min < 20
                assert 0 < box.y_max - box.y_min < 20
                assert box.point_count >= 8

    def test_stack_detects_objects_when_present(self):
        stack = PerceptionStack(StackConfig(
            seed=9,
            scenario=ScenarioConfig(seed=9, spawn_prob=0.8, max_objects=6),
        ))
        stack.run(n_frames=25)
        arrivals = stack.sink.arrivals["objects"]
        assert len(arrivals) == 25
        # The detector output reaching the sink carries bounding boxes
        # in at least a majority of frames of this busy scenario.
        # (Sink records only metadata; re-derive via the detector count.)
        assert stack.detector.detected_count == 25


class TestGroundSplitConservation:
    def test_ground_plus_nonground_partitions_cloud(self):
        scenario = DrivingScenario(ScenarioConfig(seed=4, spawn_prob=0.7))
        for frame in range(3, 15):
            cloud = scenario.lidar_frame(frame, "front")
            mask = classify_ground(cloud)
            ground = cloud.select(mask)
            nonground = cloud.select(~mask)
            assert len(ground) + len(nonground) == len(cloud)
            merged = np.vstack([ground.points, nonground.points])
            assert merged.shape == cloud.points.shape


def _missed_ground(seed: int, frames: range, fused: bool):
    """(true ground returns classified non-ground, true ground returns).

    A sweep starts with its ground grid (``rings x points_per_ring``
    returns), so the ground truth of a cloud is its first rows.
    """
    scenario = DrivingScenario(ScenarioConfig(seed=seed))
    n_ground = scenario.config.ground_rings * scenario.config.points_per_ring
    missed = total = 0
    for frame in frames:
        front = scenario.lidar_frame(frame, "front")
        rear = scenario.lidar_frame(frame, "rear")
        cloud = front.concatenate(rear) if fused else front
        truth = np.zeros(len(cloud), dtype=bool)
        truth[:n_ground] = True
        if fused:
            truth[len(front):len(front) + n_ground] = True
        mask = classify_ground(cloud)
        missed += int(np.count_nonzero(truth & ~mask))
        total += int(np.count_nonzero(truth))
    return missed, total


class TestGroundRecall:
    """At most 1% of true ground returns may be called non-ground.

    One lidar meets it (67 of 46,080 missed over seeds 1-4 x frames
    0-3).  The fused front + rear cloud does not: both mounts sample one
    polar grid, so every ground return has a twin at equal radius, and
    the radial walk divides a noise-sized ``dz`` by a ``dr`` clipped to
    1 mm -- 46,063 of 92,160 (50.0%) missed over the same frames, and
    the detector's largest "object" on seed 1 frame 3 is 2,876 ground
    returns.  The defect predates the event-heap kernel (same counts on
    the calendar-queue kernel).  Fixing it moves every stack digest and
    pin, so the fix belongs to a benchmark change (ROADMAP item 1).
    """

    TARGET = 0.01

    def test_single_lidar(self):
        missed, total = _missed_ground(seed=1, frames=range(4), fused=False)
        assert missed <= self.TARGET * total

    @pytest.mark.xfail(strict=True, reason="twin ground returns on the "
                       "fused cloud read as steep slopes (ROADMAP item 1)")
    def test_fused_cloud(self):
        missed, total = _missed_ground(seed=1, frames=range(4), fused=True)
        assert missed <= self.TARGET * total
