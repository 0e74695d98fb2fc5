"""Cell-level connected components vs the per-point BFS they replaced.

``repro.perception.clustering.euclidean_clusters`` computes connected
components over occupied cells; ``tests/_reference/clustering_bfs.py``
is the per-point BFS it replaced, kept verbatim as the oracle.  The two
must agree on everything a caller can observe: how many clusters, in
which order (ascending smallest member index), which points each one
holds, and therefore the boxes.  Only the order of the members *inside*
a cluster differs: BFS order there, ascending index order here.

The detector-level tests then check the same thing where the stack
consumes it: every ``DetectedObjects`` the deployed detector publishes
equals what the BFS yields for the cloud it was computed from.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference.clustering_bfs import euclidean_clusters as reference_clusters
from repro.perception import PerceptionStack, StackConfig
from repro.perception.clustering import boxes_from_clusters, euclidean_clusters
from repro.perception.ground_filter import classify_ground
from repro.perception.scenario import DrivingScenario, ScenarioConfig
from repro.perception.stack import SEGMENT_NAMES
from _golden import latency_digest, trace_digest

#: A rewritten in-place kernel that starts to warn fails here.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EPS = (0.3, 0.8, 1.2, 1.5)
MIN_POINTS = (1, 5, 8)

#: The e2e benchmark's sparse world: ~55 non-ground points per frame.
SPARSE = dict(ground_rings=2, points_per_ring=24, max_objects=1,
              points_per_object_mean=10)


def assert_same_clustering(xyz, eps, min_points):
    expected = reference_clusters(xyz, eps=eps, min_points=min_points)
    got = euclidean_clusters(xyz, eps=eps, min_points=min_points)
    assert len(got) == len(expected)
    # Old seed order: a cluster is emitted when the scan reaches its
    # smallest member.
    seeds = [int(members[0]) for members in got]
    assert seeds == [int(members.min()) for members in expected]
    assert seeds == sorted(seeds)
    for mine, theirs in zip(got, expected):
        assert mine.dtype == theirs.dtype
        # Same set, and ascending on this side.
        assert np.array_equal(mine, np.sort(theirs))
    assert boxes_from_clusters(xyz, got) == boxes_from_clusters(xyz, expected)
    return got


@st.composite
def clouds(draw):
    """Small clouds dense enough to chain: lattice cell + offset inside.

    Offset 0.0 puts a point exactly on a cell boundary (and, scaled by
    ``eps`` and divided again, a rounding error away from it); a short
    list of distinct points drawn with replacement gives duplicates.
    """
    eps = draw(st.sampled_from(EPS))
    extent = draw(st.integers(min_value=0, max_value=7))
    cell = st.integers(min_value=-extent, max_value=extent)
    offset = st.one_of(
        st.sampled_from([0.0, 0.5, 0.999]),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True, width=32),
    )
    coordinate = st.builds(lambda c, o: (c + o) * eps, cell, offset)
    point = st.tuples(coordinate, coordinate, coordinate)
    distinct = draw(st.lists(point, min_size=1, max_size=60))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=150))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return np.array(picks, dtype=dtype), eps


class TestDifferentialProperty:
    @given(clouds(), st.sampled_from(MIN_POINTS))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bfs(self, cloud, min_points):
        xyz, eps = cloud
        assert_same_clustering(xyz, eps, min_points)

    @given(clouds(), st.sampled_from(EPS))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_when_eps_is_not_the_lattice_pitch(self, cloud, eps):
        xyz, _ = cloud
        assert_same_clustering(xyz, eps, 1)


class TestDifferentialCorners:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("min_points", MIN_POINTS)
    def test_single_point(self, dtype, min_points):
        xyz = np.array([[-3.2, 4.1, 0.5]], dtype=dtype)
        got = assert_same_clustering(xyz, 0.8, min_points)
        assert len(got) == (1 if min_points == 1 else 0)

    @pytest.mark.parametrize("eps", EPS)
    def test_all_points_in_one_cell(self, eps):
        rng = np.random.default_rng(4)
        xyz = (np.array([-2.0, 3.0, 0.0]) + rng.uniform(0.05, 0.95, (40, 3))) * eps
        got = assert_same_clustering(xyz, eps, 8)
        assert [len(c) for c in got] == [40]

    def test_duplicates_count_towards_min_points(self):
        xyz = np.repeat(np.array([[1.0, 1.0, 1.0], [40.0, 0.0, 0.0]]), [8, 7], axis=0)
        got = assert_same_clustering(xyz, 0.8, 8)
        assert [c.tolist() for c in got] == [list(range(8))]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("eps", EPS)
    def test_points_exactly_on_cell_boundaries(self, dtype, eps):
        lattice = np.array(
            [(i, j, k) for i in range(-4, 5, 2) for j in (-1, 0, 2) for k in (0, 1)],
            dtype=np.float64,
        )
        xyz = (lattice * eps).astype(dtype)
        for min_points in MIN_POINTS:
            assert_same_clustering(xyz, eps, min_points)

    def test_negative_coordinates_do_not_alias_across_axes(self):
        """(0, ymax, .) and (1, ymin, .) are far apart; a packed key
        without padding would make them neighbours."""
        xyz = np.array([[0.4, 7.6, 0.4], [1.2, -7.6, 0.4],
                        [0.4, 0.4, 3.6], [0.4, 1.2, -3.6]])
        got = assert_same_clustering(xyz, 0.8, 1)
        assert len(got) == 4

    def test_order_is_by_smallest_member_not_by_position(self):
        far = np.array([30.0, 30.0, 0.0])
        near = np.array([-30.0, -30.0, 0.0])
        rng = np.random.default_rng(6)
        blob = rng.uniform(0.0, 0.7, (10, 3))
        xyz = np.vstack([far + blob, near + blob])
        got = assert_same_clustering(xyz, 0.8, 5)
        assert [int(c[0]) for c in got] == [0, 10]

    def test_tortuous_components_need_several_hooking_rounds(self):
        """Random occupancy near the percolation threshold: ~240 winding
        components of every size, which take the min-label hooking loop
        four rounds (scenario frames take two), points in random order."""
        rng = np.random.default_rng(0)
        occupied = np.argwhere(rng.random((70, 70, 1)) < 0.3)
        xyz = (occupied + rng.uniform(0.1, 0.9, occupied.shape)) * 0.8
        xyz = xyz[rng.permutation(len(xyz))]
        for min_points in MIN_POINTS:
            assert_same_clustering(xyz, 0.8, min_points)

    def test_distant_blobs_near_the_key_limit_still_cluster(self):
        """A 2e6-cell span per axis packs into 8.0e18 of the 9.2e18 keys
        int64 has; nothing may scale with the bounding volume."""
        rng = np.random.default_rng(8)
        blob = rng.uniform(0.0, 0.5, (20, 3))
        xyz = np.vstack([blob - 8e5, blob + 8e5])
        got = assert_same_clustering(xyz, 0.8, 8)
        assert [len(c) for c in got] == [20, 20]

    @pytest.mark.parametrize("config", [ScenarioConfig(seed=7),
                                        ScenarioConfig(seed=7, **SPARSE)])
    def test_scenario_frames(self, config):
        scenario = DrivingScenario(config)
        for frame in range(3):
            fused = scenario.lidar_frame(frame, "front").concatenate(
                scenario.lidar_frame(frame, "rear")
            )
            nonground = fused.select(~classify_ground(fused))
            assert_same_clustering(nonground.xyz, 0.8, 8)


class TestInputValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_coordinates_are_refused(self, bad, dtype):
        xyz = np.zeros((12, 3), dtype=dtype)
        xyz[5, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            euclidean_clusters(xyz)

    def test_eps_that_overflows_the_division_is_refused(self):
        xyz = np.full((3, 3), 1e30, dtype=np.float32)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            euclidean_clusters(xyz, eps=1e-30)

    def test_cell_span_beyond_an_int64_key_is_refused(self):
        xyz = np.array([[-1e7, -1e7, -1e7], [1e7, 1e7, 1e7]])
        with pytest.raises(ValueError, match="int64 key"):
            euclidean_clusters(xyz, eps=1e-3)

    @pytest.mark.parametrize("eps", [0.0, -0.8, np.nan, np.inf])
    @pytest.mark.parametrize("n_points", [0, 12])
    def test_eps_that_is_no_cell_edge_is_refused(self, eps, n_points):
        """0 used to divide by zero (a warning, then a ValueError that
        blamed the points), a negative eps clustered a mirrored grid and
        inf put every point in one cell."""
        xyz = np.arange(3.0 * n_points).reshape(-1, 3)
        with pytest.raises(ValueError, match="eps must be a positive"):
            euclidean_clusters(xyz, eps=eps)

    def test_cell_coordinate_beyond_int64_is_refused(self):
        """A narrow span far out: the key would fit, the cast would not."""
        xyz = np.full((10, 3), 1e30)
        with pytest.raises(ValueError, match="int64 key"):
            euclidean_clusters(xyz)


def _record_by_frame(publisher, into):
    publisher.writer.on_publish_hooks.append(
        lambda sample: into.__setitem__(sample.data.frame_index, sample.data)
    )


def _run_recorded(config, n_frames):
    """Run a stack; return it with the non-ground clouds the detector
    was sent and the ``DetectedObjects`` it published, by frame."""
    stack = PerceptionStack(config)
    clouds_in, objects_out = {}, {}
    _record_by_frame(stack.classifier.pub_nonground, clouds_in)
    _record_by_frame(stack.detector.publisher, objects_out)
    stack.run(n_frames=n_frames)
    return stack, clouds_in, objects_out


def _stack_digest(config, n_frames):
    """The golden-trace digests of one run, plus what the detector said."""
    stack, _, objects_out = _run_recorded(config, n_frames)
    latencies = {name: stack.monitored_latencies(name) for name in SEGMENT_NAMES}
    return trace_digest(stack.tracer), latency_digest(latencies), objects_out


@pytest.mark.slow
class TestDetectorAgainstReference:
    CASES = [
        pytest.param(StackConfig(seed=3, scenario=ScenarioConfig(seed=3)), 4, id="dense"),
        pytest.param(StackConfig(seed=3, scenario=ScenarioConfig(seed=3, **SPARSE)), 30,
                     id="sparse"),
    ]

    @pytest.mark.parametrize("config, n_frames", CASES)
    def test_published_objects_equal_reference(self, config, n_frames):
        stack, clouds_in, objects_out = _run_recorded(config, n_frames)
        assert sorted(objects_out) == list(range(n_frames))
        total_boxes = 0
        for frame, detected in objects_out.items():
            cloud = clouds_in[frame]
            assert detected.stamp == cloud.stamp
            expected = boxes_from_clusters(
                cloud.xyz,
                reference_clusters(cloud.xyz, eps=stack.detector.eps,
                                   min_points=stack.detector.min_points),
            )
            assert [dataclasses.asdict(b) for b in detected.boxes] == \
                [dataclasses.asdict(b) for b in expected]
            total_boxes += len(expected)
        assert total_boxes > 0

    @pytest.mark.parametrize("config, n_frames", CASES)
    def test_same_seed_same_digest(self, config, n_frames):
        assert _stack_digest(config, n_frames) == _stack_digest(config, n_frames)
