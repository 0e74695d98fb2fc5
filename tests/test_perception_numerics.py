"""Unit tests for point clouds, scenario, ground filter and clustering."""

import numpy as np
import pytest

from repro.perception import (
    DrivingScenario,
    PointCloud,
    ScenarioConfig,
    classify_ground,
    euclidean_clusters,
)
from repro.perception.clustering import BoundingBox, boxes_from_clusters

#: A rewritten in-place kernel that starts to warn fails here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def flat_ground(n=400, sensor_height=1.8, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-30, 30, n)
    y = rng.uniform(-30, 30, n)
    z = np.full(n, -sensor_height) + rng.normal(0, noise, n)
    i = np.ones(n)
    return np.column_stack([x, y, z, i]).astype(np.float32)


class TestPointCloud:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PointCloud(points=np.zeros((5, 3)), frame_index=0, stamp=0)

    def test_len_and_nbytes(self):
        cloud = PointCloud(points=np.zeros((10, 4), dtype=np.float32), frame_index=0, stamp=0)
        assert len(cloud) == 10
        assert cloud.nbytes == 10 * 16 + 64

    def test_concatenate_keeps_earliest_stamp(self):
        a = PointCloud(points=np.zeros((3, 4)), frame_index=7, stamp=100)
        b = PointCloud(points=np.ones((2, 4)), frame_index=7, stamp=50)
        fused = a.concatenate(b)
        assert len(fused) == 5
        assert fused.stamp == 50
        assert fused.frame_index == 7

    def test_select_by_mask(self):
        points = np.arange(20, dtype=np.float32).reshape(5, 4)
        cloud = PointCloud(points=points, frame_index=0, stamp=0)
        sub = cloud.select(np.array([True, False, True, False, False]))
        assert len(sub) == 2
        assert np.allclose(sub.points[1], points[2])

    def test_empty(self):
        cloud = PointCloud.empty(frame_index=3)
        assert len(cloud) == 0
        assert cloud.frame_index == 3


class TestScenario:
    def test_deterministic_given_seed(self):
        a = DrivingScenario(ScenarioConfig(seed=5)).lidar_frame(0, "front")
        b = DrivingScenario(ScenarioConfig(seed=5)).lidar_frame(0, "front")
        assert np.array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = DrivingScenario(ScenarioConfig(seed=5)).lidar_frame(3, "front")
        b = DrivingScenario(ScenarioConfig(seed=6)).lidar_frame(3, "front")
        assert a.points.shape != b.points.shape or not np.array_equal(a.points, b.points)

    def test_front_and_rear_share_world_but_differ(self):
        scenario = DrivingScenario(ScenarioConfig(seed=5))
        front = scenario.lidar_frame(2, "front")
        rear = scenario.lidar_frame(2, "rear")
        assert front.frame_id == "lidar_front"
        assert rear.frame_id == "lidar_rear"

    def test_same_frame_can_be_requested_twice(self):
        scenario = DrivingScenario(ScenarioConfig(seed=5))
        a = scenario.lidar_frame(4, "front")
        b = scenario.lidar_frame(4, "front")
        assert np.array_equal(a.points, b.points)

    def test_lagging_frame_within_horizon_ok(self):
        scenario = DrivingScenario(ScenarioConfig(seed=5))
        scenario.lidar_frame(10, "front")
        rear = scenario.lidar_frame(8, "rear")  # rear lags two frames
        assert rear.frame_index == 8

    def test_too_old_frame_rejected(self):
        scenario = DrivingScenario(ScenarioConfig(seed=5))
        scenario.lidar_frame(200, "front")
        with pytest.raises(ValueError):
            scenario.lidar_frame(10, "rear")

    def test_unknown_mount_rejected(self):
        with pytest.raises(ValueError):
            DrivingScenario().lidar_frame(0, "left")

    def test_point_counts_vary_over_time(self):
        scenario = DrivingScenario(ScenarioConfig(seed=5, spawn_prob=0.5))
        counts = [len(scenario.lidar_frame(i, "front")) for i in range(40)]
        assert len(set(counts)) > 5

    def test_frame_header_fields(self):
        cloud = DrivingScenario(ScenarioConfig(seed=1)).lidar_frame(7, "front", stamp=123)
        assert cloud.frame_index == 7
        assert cloud.stamp == 123


class TestGroundFilter:
    def test_flat_ground_mostly_classified_ground(self):
        cloud = PointCloud(points=flat_ground(noise=0.02), frame_index=0, stamp=0)
        mask = classify_ground(cloud, sensor_height=1.8)
        assert mask.mean() > 0.9

    def test_elevated_points_not_ground(self):
        ground = flat_ground(n=300, noise=0.02)
        obstacle = ground.copy()[:50]
        obstacle[:, 2] += 1.2  # one metre above ground
        cloud = PointCloud(
            points=np.vstack([ground, obstacle]), frame_index=0, stamp=0
        )
        mask = classify_ground(cloud, sensor_height=1.8)
        assert mask[:300].mean() > 0.85
        assert mask[300:].mean() < 0.1

    def test_empty_cloud(self):
        mask = classify_ground(PointCloud.empty())
        assert mask.shape == (0,)

    @pytest.mark.parametrize("n_rays", [0, -1, -256])
    @pytest.mark.parametrize("n_points", [0, 5])
    def test_n_rays_below_one_is_refused(self, n_rays, n_points):
        """0 used to divide by zero (a warning, then a mask); a negative
        count was taken."""
        cloud = PointCloud(points=flat_ground(n=n_points), frame_index=0,
                           stamp=0)
        with pytest.raises(ValueError, match="n_rays must be at least 1"):
            classify_ground(cloud, n_rays=n_rays)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_refused(self, axis, value):
        """A NaN used to leak "invalid value encountered in cast" and an
        infinite x came back as ground; ``euclidean_clusters`` refuses
        both."""
        points = flat_ground(n=4)
        points[2, axis] = value
        cloud = PointCloud(points=points, frame_index=0, stamp=0)
        with pytest.raises(ValueError, match="non-finite"):
            classify_ground(cloud)

    def test_steep_wall_rejected_by_slope(self):
        """A vertical surface near ground level fails the slope test
        even where its lowest points sit within the height threshold."""
        rng = np.random.default_rng(3)
        ground = flat_ground(n=400, noise=0.01, seed=3)
        # A wall at x=5: points stacked vertically from ground level up.
        wall_z = np.linspace(-1.75, 0.0, 40)
        wall = np.column_stack([
            np.full(40, 5.0), rng.normal(0, 0.02, 40), wall_z, np.ones(40)
        ]).astype(np.float32)
        cloud = PointCloud(
            points=np.vstack([ground, wall]), frame_index=0, stamp=0
        )
        mask = classify_ground(cloud, sensor_height=1.8)
        # The bulk of the wall is classified non-ground.
        assert mask[400:].mean() < 0.4

    def test_mask_shape_matches_cloud(self):
        cloud = DrivingScenario(ScenarioConfig(seed=2)).lidar_frame(0, "front")
        mask = classify_ground(cloud)
        assert mask.shape == (len(cloud),)
        assert mask.dtype == bool

    def test_scenario_frame_classification_plausible(self):
        scenario = DrivingScenario(ScenarioConfig(seed=3, spawn_prob=0.8))
        cloud = scenario.lidar_frame(20, "front")
        mask = classify_ground(cloud, sensor_height=1.8)
        # The synthetic sweep is mostly ground returns.
        assert 0.5 < mask.mean() <= 1.0


class TestClustering:
    def test_two_separated_clusters_found(self):
        rng = np.random.default_rng(0)
        a = rng.normal([0, 0, 0], 0.2, (50, 3))
        b = rng.normal([10, 0, 0], 0.2, (40, 3))
        clusters = euclidean_clusters(np.vstack([a, b]), eps=0.8, min_points=8)
        assert len(clusters) == 2
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [40, 50]

    def test_noise_below_min_points_discarded(self):
        rng = np.random.default_rng(0)
        cluster = rng.normal([0, 0, 0], 0.2, (30, 3))
        noise = np.array([[50.0, 50, 0], [60, -60, 0], [-70, 10, 0]])
        clusters = euclidean_clusters(np.vstack([cluster, noise]), eps=0.8, min_points=8)
        assert len(clusters) == 1
        assert len(clusters[0]) == 30

    def test_empty_input(self):
        assert euclidean_clusters(np.empty((0, 3))) == []

    def test_single_blob_is_one_cluster(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(0, 0.3, (100, 3))
        clusters = euclidean_clusters(pts, eps=1.0, min_points=5)
        assert len(clusters) == 1

    def test_bounding_boxes(self):
        pts = np.array([[0.0, 0, 0], [2, 1, 0.5], [1, 0.5, 0.2]])
        boxes = boxes_from_clusters(pts, [np.array([0, 1, 2])])
        assert len(boxes) == 1
        box = boxes[0]
        assert box.x_min == 0.0 and box.x_max == 2.0
        assert box.point_count == 3
        assert (box.y_min, box.y_max, box.z_min, box.z_max) == (0.0, 1.0, 0.0, 0.5)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_an_empty_cluster_has_no_box(self, position):
        """Wherever it sits, not a box borrowed from its neighbour."""
        pts = np.array([[0.0, 0, 0], [2, 1, 0.5], [1, 0.5, 0.2]])
        clusters = [np.array([0]), np.array([1, 2])]
        clusters.insert(position, np.array([], dtype=np.intp))
        with pytest.raises(ValueError):
            boxes_from_clusters(pts, clusters)

    def test_cluster_partition_property(self):
        """Clusters are disjoint and cover only input indices."""
        rng = np.random.default_rng(2)
        pts = rng.uniform(-20, 20, (300, 3))
        clusters = euclidean_clusters(pts, eps=1.5, min_points=1)
        all_indices = np.concatenate(clusters) if clusters else np.array([])
        assert len(all_indices) == len(set(all_indices.tolist()))
        assert set(all_indices.tolist()) <= set(range(300))
        # min_points=1: every point belongs to exactly one cluster.
        assert len(all_indices) == 300
