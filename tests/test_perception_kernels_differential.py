"""The perception kernels vs the versions they replaced.

``tests/_reference/perception_kernels.py`` keeps the replaced code
verbatim.  Each rewrite promised an exact result, so each comparison
is exact:

- (a)-(c), the older rewrites: ``clustering._adjacent_cells`` finds the
  same *set* of cell edges, each once (their order is free:
  ``_component_labels`` is order-invariant), as the 13-offset probe and
  brute force; ``ground_filter._ray_walk_order`` is
  ``np.lexsort((radius, ray))`` element for element and
  ``classify_ground`` gives the same mask; ``lidar_frame`` the same
  bytes as per-call geometry;
- (d), the one-C-call-per-pass kernels against the wrapper kernels they
  replaced, on generated clouds (empty, one point, one cell, duplicate
  points, the twin radii of a fused front + rear sweep, ~3k points):
  the same cluster index arrays in the same order, equal boxes, equal
  ground masks, equal selected and fused clouds and equal sweep bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import perception_kernels as reference
from _reference.clustering_bfs import euclidean_clusters as reference_clusters
from repro.perception.clustering import (
    _adjacent_cells,
    _occupied_cells,
    boxes_from_clusters,
    euclidean_clusters,
)
from repro.perception.ground_filter import _ray_walk_order, classify_ground
from repro.perception.pointcloud import PointCloud
from repro.perception.scenario import DrivingScenario, ScenarioConfig

#: A rewritten in-place kernel that starts to warn fails here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EPS = 0.8


# ----------------------------------------------------------------------
# (a) cell adjacency
# ----------------------------------------------------------------------
def cloud_of_cells(cells):
    """One point in the middle of each (x, y, z) cell."""
    return (np.asarray(cells, dtype=np.float64).reshape(-1, 3) + 0.5) * EPS


def edge_list(a, b):
    return sorted(zip(a.tolist(), b.tolist()))


def assert_same_edges(cells):
    """Production, the 13-offset probe and brute force agree on the
    edges among *cells*; returns them."""
    xyz = cloud_of_cells(cells)
    cell_keys, cell_of_point, strides = _occupied_cells(xyz, EPS)
    got = edge_list(*_adjacent_cells(cell_keys, strides))
    assert len(got) == len(set(got)), "an edge was reported twice"
    assert got == edge_list(*reference.adjacent_cells_13_offsets(cell_keys, strides))
    # Independent of any key packing: two distinct occupied cells touch
    # iff no axis separates them by more than one cell.
    index_of = dict(zip(map(tuple, np.asarray(cells).tolist()),
                        cell_of_point.tolist()))
    occupied = sorted(index_of)
    brute = sorted(
        tuple(sorted((index_of[p], index_of[q])))
        for i, p in enumerate(occupied) for q in occupied[i + 1:]
        if max(abs(u - v) for u, v in zip(p, q)) <= 1
    )
    assert got == brute
    # And the clustering built on them is still the BFS's.
    mine = euclidean_clusters(xyz, eps=EPS, min_points=1)
    theirs = reference_clusters(xyz, eps=EPS, min_points=1)
    assert [m.tolist() for m in mine] == [sorted(t.tolist()) for t in theirs]
    return got


@st.composite
def cell_sets(draw):
    """Occupied cells in a small box around the origin.

    The box is a few cells wide per axis, so random occupancy gives
    every neighbour direction, runs along every axis and isolated cells;
    each extreme cell sits on the padded boundary by construction.
    """
    half = draw(st.tuples(*[st.integers(min_value=0, max_value=4)] * 3))
    cell = st.tuples(*[st.integers(min_value=-h, max_value=h) for h in half])
    return sorted(draw(st.sets(cell, min_size=1, max_size=80)))


class TestAdjacentCells:
    @given(cell_sets())
    @settings(max_examples=300, deadline=None)
    def test_edge_set_equals_reference_and_brute_force(self, cells):
        assert_same_edges(cells)

    def test_single_occupied_cell_has_no_edges(self):
        assert assert_same_edges([(-3, 2, 0)]) == []

    def test_all_isolated_cells_have_no_edges(self):
        cells = [(2 * i, 2 * j, 2 * k)
                 for i in range(-2, 2) for j in range(-2, 2) for k in range(-1, 2)]
        assert assert_same_edges(cells) == []

    def test_vertical_run_longer_than_the_three_probed_slots(self):
        """Seven cells stacked in z: only successive ones touch."""
        edges = assert_same_edges([(0, 0, k) for k in range(-3, 4)])
        assert edges == [(i, i + 1) for i in range(6)]

    def test_two_vertical_runs_side_by_side(self):
        """Every cell of a column sees up to three cells of the next
        column, and the end cells see two."""
        cells = [(0, j, k) for j in (0, 1) for k in range(5)]
        assert len(assert_same_edges(cells)) == 2 * 4 + (3 * 3 + 2 * 2)

    @pytest.mark.parametrize("step", [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0),
        (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
        (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
    ])
    def test_each_of_the_13_directions_alone(self, step):
        """Two cells one step apart, far from a third that pins the
        strides to something other than 1."""
        assert assert_same_edges([(-2, -2, -2), step, (4, 5, 3), (0, 0, 0)]) \
            == [(1, 2)]

    def test_neighbours_in_x_or_y_only_are_not_key_neighbours(self):
        """(0, ymax, zmax) and (0, ymax + 1, zmin) would be consecutive
        keys without the padding cell; two steps in x or y are no
        neighbours either."""
        cells = [(0, 0, 2), (0, 1, -2), (2, 0, 0), (0, 3, 0), (1, 0, 2)]
        assert assert_same_edges(cells) == [(0, 3)]

    def test_last_key_probes_past_the_end(self):
        """The (+1, +1) column of the largest key lies beyond every
        key: its three slots are the sentinels."""
        edges = assert_same_edges([(0, 0, 0), (1, 1, 1)])
        assert edges == [(0, 1)]


# ----------------------------------------------------------------------
# (b) ray walk order
# ----------------------------------------------------------------------
def cloud_from(xyz):
    xyz = np.asarray(xyz, dtype=np.float32).reshape(-1, 3)
    points = np.column_stack([xyz, np.zeros(len(xyz), dtype=np.float32)])
    return PointCloud(points=points, frame_index=0, stamp=0)


#: Few distinct values per axis: duplicated radii and exact
#: (ray, radius) ties are the common case, not the rare one.
coarse = st.sampled_from([-6.0, -1.5, -0.5, 0.0, 0.5, 1.5, 6.0])
fine = st.floats(min_value=-40.0, max_value=40.0, width=32)
height = st.one_of(st.sampled_from([-1.8, -1.7, -1.5, 0.0]),
                   st.floats(min_value=-3.0, max_value=3.0, width=32))
point_lists = st.lists(
    st.tuples(st.one_of(coarse, fine), st.one_of(coarse, fine), height),
    min_size=0, max_size=120,
)


class TestRayWalkOrder:
    @given(point_lists, st.sampled_from([1, 2, 7, 256, 300, 70_000]))
    @settings(max_examples=300, deadline=None)
    def test_mask_and_order_equal_the_lexsort_walk(self, points, n_rays):
        cloud = cloud_from(points)
        assert np.array_equal(
            classify_ground(cloud, n_rays=n_rays),
            reference.classify_ground_lexsort(cloud, n_rays=n_rays),
        )
        x, y = cloud.xyz[:, 0].astype(np.float64), cloud.xyz[:, 1].astype(np.float64)
        radius = np.hypot(x, y)
        ray = ((np.arctan2(y, x) + np.pi) / (2 * np.pi) * n_rays).astype(np.int64) % n_rays
        narrow = ray.astype(np.min_scalar_type(n_rays - 1))
        assert np.array_equal(narrow, ray)
        assert np.array_equal(_ray_walk_order(narrow, radius),
                              np.lexsort((radius, ray)))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_zero_one_and_two_points(self, n):
        cloud = cloud_from([(3.0, 0.1, -1.8), (3.0, 0.1, -1.8)][:n])
        assert np.array_equal(classify_ground(cloud),
                              reference.classify_ground_lexsort(cloud))
        ray = np.zeros(n, dtype=np.uint8)
        radius = np.full(n, 3.0)
        assert _ray_walk_order(ray, radius).tolist() == list(range(n))

    def test_exact_ties_keep_index_order(self):
        """Same ray, same radius: lexsort leaves such points in index
        order, and the walk compares each to the one before it."""
        ray = np.array([5, 2, 5, 2, 5, 2, 5], dtype=np.uint8)
        radius = np.array([4.0, 1.0, 4.0, 1.0, 2.0, 1.0, 4.0])
        order = _ray_walk_order(ray, radius)
        assert order.tolist() == [1, 3, 5, 4, 0, 2, 6]
        assert np.array_equal(order, np.lexsort((radius, ray)))

    def test_all_points_in_one_ray(self):
        rng = np.random.default_rng(3)
        radius = rng.choice([1.0, 2.5, 2.5, 7.0, 9.0], size=200)
        ray = np.full(200, 17, dtype=np.uint8)
        assert np.array_equal(_ray_walk_order(ray, radius),
                              np.argsort(radius, kind="stable"))
        xyz = np.column_stack([radius, np.zeros(200), rng.normal(-1.8, 0.1, 200)])
        cloud = cloud_from(xyz)
        assert np.array_equal(classify_ground(cloud),
                              reference.classify_ground_lexsort(cloud))

    @pytest.mark.parametrize("config", [
        ScenarioConfig(seed=7),
        ScenarioConfig(seed=2, ground_rings=2, points_per_ring=24,
                       max_objects=1, points_per_object_mean=10),
    ])
    def test_scenario_frames(self, config):
        """Ring returns mirror each other across both axes, so a sweep
        is full of exactly equal radii."""
        scenario = DrivingScenario(config)
        for frame in range(3):
            fused = scenario.lidar_frame(frame, "front").concatenate(
                scenario.lidar_frame(frame, "rear")
            )
            x, y = fused.xyz[:, 0].astype(np.float64), fused.xyz[:, 1].astype(np.float64)
            assert len(np.unique(np.hypot(x, y))) < len(fused)
            for sensor_height in (1.8, 1.2):
                assert np.array_equal(
                    classify_ground(fused, sensor_height=sensor_height),
                    reference.classify_ground_lexsort(fused, sensor_height=sensor_height),
                )


# ----------------------------------------------------------------------
# (c) lidar synthesis
# ----------------------------------------------------------------------
SCENARIOS = [
    ScenarioConfig(seed=5, spawn_prob=0.6),
    ScenarioConfig(seed=9, ground_rings=3, points_per_ring=37,
                   ring_spacing_m=0.7, spawn_prob=0.9, max_objects=3),
]


class TestLidarFrame:
    @pytest.mark.parametrize("config", SCENARIOS)
    def test_bytes_equal_per_call_geometry(self, config):
        mine = DrivingScenario(config)
        theirs = reference.PerCallGeometryScenario(config)
        objects = 0
        for frame in range(12):
            for mount in ("front", "rear"):
                got = mine.lidar_frame(frame, mount, stamp=frame)
                expected = theirs.lidar_frame(frame, mount, stamp=frame)
                assert got.points.dtype == expected.points.dtype == np.float32
                assert got.points.shape == expected.points.shape
                assert got.points.tobytes() == expected.points.tobytes()
                assert (got.frame_index, got.stamp, got.frame_id) == \
                    (expected.frame_index, expected.stamp, expected.frame_id)
                objects += len(got) - config.ground_rings * config.points_per_ring
        assert objects > 0  # the object returns were compared too

    def test_scenarios_of_different_size_share_no_geometry(self):
        small, large = (DrivingScenario(config) for config in reversed(SCENARIOS))
        # Interleaved: neither may see the other's rings.
        for frame in range(3):
            for scenario, config in ((small, SCENARIOS[1]), (large, SCENARIOS[0])):
                cloud = scenario.lidar_frame(frame, "front")
                fresh = reference.PerCallGeometryScenario(config)
                assert cloud.points.tobytes() == \
                    fresh.lidar_frame(frame, "front").points.tobytes()

    def test_mutating_a_returned_cloud_leaves_the_next_one_alone(self):
        scenario = DrivingScenario(SCENARIOS[0])
        first = scenario.lidar_frame(0, "front")
        pristine = first.points.copy()
        first.points[:] = np.nan
        again = scenario.lidar_frame(0, "front")
        assert again.points.tobytes() == pristine.tobytes()
        assert not np.shares_memory(again.points, first.points)


# ----------------------------------------------------------------------
# (d) the wrapper kernels
# ----------------------------------------------------------------------
def perceive(cloud, eps, min_points):
    """What production makes of *cloud*, shaped like
    ``reference.perceive``."""
    mask = classify_ground(cloud)
    ground, nonground = cloud.select(mask), cloud.select(~mask)
    clustered = []
    for xyz in (cloud.xyz, nonground.xyz):
        clusters = euclidean_clusters(xyz, eps=eps, min_points=min_points)
        clustered.append((clusters, boxes_from_clusters(xyz, clusters)))
    return mask, ground, nonground, clustered


def assert_same_cloud(got, expected):
    assert got.points.dtype == expected.points.dtype == np.float32
    assert got.points.shape == expected.points.shape
    assert got.points.tobytes() == expected.points.tobytes()
    assert (got.frame_index, got.stamp, got.frame_id) == \
        (expected.frame_index, expected.stamp, expected.frame_id)


def assert_same_perception(cloud, eps=EPS, min_points=8):
    mask, ground, nonground, clustered = perceive(cloud, eps, min_points)
    expected = reference.perceive(cloud, eps, min_points)
    assert mask.dtype == expected[0].dtype == bool
    assert mask.tobytes() == expected[0].tobytes()
    assert_same_cloud(ground, expected[1])
    assert_same_cloud(nonground, expected[2])
    for (clusters, boxes), (their_clusters, their_boxes) in zip(
        clustered, expected[3]
    ):
        assert len(clusters) == len(their_clusters)
        for mine, theirs in zip(clusters, their_clusters):
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()
        assert boxes == their_boxes


#: Offsets inside one cell of edge ``EPS``: 0.0 sits on its boundary.
inside_cell = st.floats(min_value=0.0, max_value=0.75, width=32)


@st.composite
def perception_clouds(draw):
    """A cloud of one of the shapes the kernels special-case, the empty
    one included."""
    shape = draw(st.sampled_from(
        ["empty", "one point", "one cell", "duplicates", "twin radii"]
    ))
    if shape == "empty":
        xyz = np.zeros((0, 3))
    elif shape == "one point":
        xyz = [draw(st.tuples(fine, fine, height))]
    elif shape == "one cell":
        corner = np.array(draw(st.tuples(*[st.integers(-30, 30)] * 3))) * EPS
        offsets = draw(st.lists(st.tuples(*[inside_cell] * 3),
                                min_size=1, max_size=40))
        xyz = corner + np.array(offsets)
    else:
        distinct = draw(point_lists.filter(len))
        xyz = draw(st.lists(st.sampled_from(distinct), min_size=1,
                            max_size=120))
        if shape == "twin radii":
            # The rear lidar's mirror image: every radius twice.
            xyz = np.concatenate((xyz, np.multiply(xyz, (-1, -1, 1))))
    return cloud_from(xyz)


class TestWrapperKernels:
    """Each test asserts that the oracle compared clouds: a strategy
    that generated nothing would otherwise pass."""

    def test_generated_clouds(self):
        compared = reference.COMPARED

        @given(perception_clouds(), st.sampled_from([0.3, EPS, 1.5]),
               st.sampled_from([1, 8]))
        @settings(max_examples=200, deadline=None)
        def same_perception(cloud, eps, min_points):
            assert_same_perception(cloud, eps, min_points)

        same_perception()
        assert reference.COMPARED > compared

    def test_sparse_sweeps_and_their_fusion(self):
        compared = reference.COMPARED

        @given(st.integers(min_value=0, max_value=2**32),
               st.sampled_from([
                   dict(ground_rings=2, points_per_ring=24, max_objects=1,
                        points_per_object_mean=10),
                   dict(ground_rings=3, points_per_ring=37,
                        ring_spacing_m=0.7, spawn_prob=0.9, max_objects=3),
               ]))
        @settings(max_examples=25, deadline=None)
        def same_sweeps(seed, sizes):
            config = ScenarioConfig(seed=seed, **sizes)
            mine = DrivingScenario(config)
            theirs = reference.WrapperScenario(config)
            for frame in range(4):
                front, rear = (mine.lidar_frame(frame, mount, stamp=frame + 1)
                               for mount in ("front", "rear"))
                their_front, their_rear = (
                    theirs.lidar_frame(frame, mount, stamp=frame + 1)
                    for mount in ("front", "rear")
                )
                assert_same_cloud(front, their_front)
                assert_same_cloud(rear, their_rear)
                fused = front.concatenate(rear)
                assert_same_cloud(fused, reference.WrapperPointCloud(
                    their_front.points, their_front.frame_index,
                    their_front.stamp, their_front.frame_id,
                ).concatenate(their_rear))
                assert_same_perception(fused)

        same_sweeps()
        assert reference.COMPARED > compared

    def test_dense_sweeps(self):
        """~3k points a sweep, ~6k fused, as the default scenario makes
        them."""
        compared = reference.COMPARED
        scenario = DrivingScenario(ScenarioConfig(seed=3, spawn_prob=0.6))
        for frame in range(3):
            fused = scenario.lidar_frame(frame, "front").concatenate(
                scenario.lidar_frame(frame, "rear")
            )
            assert len(fused) > 2500
            assert_same_perception(fused)
        assert reference.COMPARED == compared + 3
