"""Earlier versions of the perception kernels, kept verbatim as oracles.

``tests/test_perception_kernels_differential.py`` holds production to
two generations of them.

The wrapper kernels (the first half of this module) entered numpy's
Python layer on every array pass -- ``np.unique``, ``np.flatnonzero``,
``np.array_equal``, ``np.append``, ``np.argsort``, ``np.vstack``,
``np.concatenate`` and ``ndarray.min`` / ``max`` / ``all`` -- which on
the ~55-point clouds of a sparse frame cost more than the arithmetic.
Production replaced each pass by one C-level call (a ufunc, a ufunc's
``reduce`` / ``reduceat``, an ``ndarray`` method) and cut passes: the
unique cells from one argsort and a cumulative sum, finiteness from the
six bounds, the boxes from two ``reduceat`` over all clusters, the
sweep cast into one array.  Everything must stay identical: the cluster
index arrays in their order, the boxes, the ground masks, the sweep
bytes and the selected and fused clouds.  ``COMPARED`` counts the
clouds a differential has held against them.

The older kernels (the second half) were replaced earlier:

- ``adjacent_cells_13_offsets``: one 13 x n ``searchsorted`` over the
  half-space offsets, by one search per (dx, dy) column plus the two
  following slots (same edge set, any order);
- ``classify_ground_lexsort``: the ``np.lexsort((radius, ray))`` walk
  order and the shifted-copy slope computation, by two stable argsorts
  and in-place differences (same mask);
- ``PerCallGeometryScenario``: ring geometry rebuilt on every sweep
  and a float64 ``column_stack`` -> ``vstack`` -> ``astype(float32)``,
  by cached ring x/y and float32 parts (same bytes, same RNG draws).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.perception.clustering import BoundingBox
from repro.perception.pointcloud import PointCloud
from repro.perception.scenario import (
    GROUND_NOISE_M,
    SENSOR_HEIGHT_M,
    DrivingScenario,
    _SceneObject,
)


#: Clouds a differential has compared against the wrapper kernels.
COMPARED = 0


# ----------------------------------------------------------------------
# The wrapper kernels
# ----------------------------------------------------------------------
#: Cell coordinates are cast to int64 and then shifted and packed; past
#: this magnitude the cast (or the shift) is undefined.
_MAX_CELL = 2**62

#: Three keys larger than every packed key (the packed grid fits int64):
#: appended to the sorted keys so that a probe of three consecutive
#: slots may start at their very end.
_NO_CELLS = np.full(3, np.iinfo(np.int64).max)


def _occupied_cells(
    xyz: np.ndarray, eps: float
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """Pack each point's cell into one int64 key.

    Returns the sorted unique keys, each point's index into them, and
    the key strides of a step in x and in y (a step in z is 1).  The
    grid is padded by one cell on every side, so adding a neighbour
    offset to an occupied key never carries into another axis.
    """
    scaled = np.floor(xyz / eps)
    if not np.isfinite(scaled).all():
        raise ValueError(
            "euclidean_clusters: non-finite cell coordinates "
            "(NaN/inf points, or eps too small for them)"
        )
    # Reductions and arithmetic run per axis on contiguous rows.
    axes = np.ascontiguousarray(scaled.T)
    lo = [int(v) - 1 for v in axes.min(axis=1)]
    hi = [int(v) + 1 for v in axes.max(axis=1)]
    span_x, span_y, span_z = (h - l + 1 for h, l in zip(hi, lo))
    if (
        min(lo) < -_MAX_CELL
        or max(hi) > _MAX_CELL
        or span_x * span_y * span_z > np.iinfo(np.int64).max
    ):
        raise ValueError(
            f"euclidean_clusters: a {span_x} x {span_y} x {span_z} cell grid "
            f"does not pack into an int64 key (eps={eps!r} too small for the "
            f"extent of the cloud)"
        )
    cx, cy, cz = axes.astype(np.int64)
    stride_x, stride_y = span_y * span_z, span_z
    keys = (cx - lo[0]) * stride_x + (cy - lo[1]) * stride_y + (cz - lo[2])
    cell_keys, cell_of_point = np.unique(keys, return_inverse=True)
    return cell_keys, cell_of_point, (stride_x, stride_y)


def _adjacent_cells(
    cell_keys: np.ndarray, strides: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs (into *cell_keys*) of occupied cells that touch.

    Every adjacent pair is found once, from its lexicographically
    smaller side: the half space (dx, dy, dz) > (0, 0, 0).  A step in z
    is a key step of 1, so the three dz of one (dx, dy) column are three
    consecutive keys and sit in consecutive slots of the sorted unique
    *cell_keys*: one ``searchsorted`` per column for its dz = -1 key,
    then whichever of that slot and the next two still hold a key of the
    column.  (0, 0, +1) is the cell's own successor slot.
    """
    stride_x, stride_y = strides
    n_cells = len(cell_keys)
    # The dz = -1 key of the columns (0, +1), (+1, -1), (+1, 0), (+1, +1).
    columns = np.array(
        [[stride_y], [stride_x - stride_y], [stride_x], [stride_x + stride_y]]
    )
    bottom = (cell_keys + (columns - 1)).ravel()
    slots = np.searchsorted(cell_keys, bottom) + np.arange(3)[:, None]
    padded = np.concatenate((cell_keys, _NO_CELLS))
    hits = np.flatnonzero(padded[slots] <= bottom + 2)
    above = np.flatnonzero(cell_keys[1:] == cell_keys[:-1] + 1)
    return (
        np.concatenate((above, hits % n_cells)),
        np.concatenate((above + 1, slots.ravel()[hits])),
    )


def _component_labels(n_cells: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label every cell with the smallest cell index of its component.

    Min-label hooking: ``labels`` is a forest whose pointers only ever
    go to smaller indices.  Each round hooks, for every edge still
    joining two trees, the larger root under the smaller one, then
    flattens the forest by pointer jumping.  A round with work left
    removes at least one root, so the loop ends; the root that survives
    in a component is its smallest index, whichever of several competing
    hooks numpy's fancy assignment lets win.
    """
    labels = np.arange(n_cells)
    while True:
        root_a, root_b = labels[a], labels[b]
        open_edges = np.flatnonzero(root_a != root_b)
        if len(open_edges) == 0:
            return labels
        a, b = a[open_edges], b[open_edges]
        root_a, root_b = root_a[open_edges], root_b[open_edges]
        labels[np.maximum(root_a, root_b)] = np.minimum(root_a, root_b)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def euclidean_clusters(
    xyz: np.ndarray, eps: float = 0.8, min_points: int = 8
) -> List[np.ndarray]:
    """Cluster points; returns index arrays, one per cluster.

    Two points belong to the same cluster if a chain of points with
    pairwise cell-adjacency (cell edge = eps) connects them -- the usual
    grid approximation of euclidean cluster extraction.  Clusters come
    in ascending order of their smallest member index, and the members
    of each in ascending index order.

    Raises ``ValueError`` for NaN/inf coordinates and for clouds whose
    extent in cells does not pack into an int64 key.
    """
    if len(xyz) == 0:
        return []
    cell_keys, cell_of_point, strides = _occupied_cells(xyz, eps)
    a, b = _adjacent_cells(cell_keys, strides)
    label_of_point = _component_labels(len(cell_keys), a, b)[cell_of_point]
    # One stable sort groups the points by component and keeps them in
    # ascending index order inside each group, so a group's first entry
    # is its smallest member.
    order = np.argsort(label_of_point, kind="stable")
    sorted_labels = label_of_point[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_labels[1:] != sorted_labels[:-1]))
    )
    ends = np.append(starts[1:], len(order))
    kept = np.flatnonzero(ends - starts >= min_points)
    kept = kept[np.argsort(order[starts[kept]])]
    return [order[starts[k]:ends[k]] for k in kept]


def boxes_from_clusters(
    xyz: np.ndarray, clusters: List[np.ndarray]
) -> List[BoundingBox]:
    """Axis-aligned bounding boxes of the clustered points."""
    boxes = []
    for members in clusters:
        pts = xyz[members]
        boxes.append(
            BoundingBox(
                x_min=float(pts[:, 0].min()),
                x_max=float(pts[:, 0].max()),
                y_min=float(pts[:, 1].min()),
                y_max=float(pts[:, 1].max()),
                z_min=float(pts[:, 2].min()),
                z_max=float(pts[:, 2].max()),
                point_count=len(members),
            )
        )
    return boxes


def _ray_walk_order(ray: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Point indices sorted by (ray, radius): ``np.lexsort((radius, ray))``.

    Two stable passes, least significant key first, give exactly
    lexsort's order -- ties keep index order -- at half its cost when
    *ray* is a 16-bit or narrower integer, which numpy radix-sorts.
    """
    by_radius = np.argsort(radius, kind="stable")
    return by_radius[np.argsort(ray[by_radius], kind="stable")]


def classify_ground(
    cloud: PointCloud,
    sensor_height: float = 1.8,
    height_threshold: float = 0.25,
    slope_threshold: float = 0.12,
    n_rays: int = 256,
) -> np.ndarray:
    """Return a boolean ground mask for *cloud*.

    Pure function (unit-testable numerics); the service below wraps it
    with cost modelling and pub/sub plumbing.
    """
    if len(cloud) == 0:
        return np.zeros(0, dtype=bool)
    x, y, z = np.ascontiguousarray(cloud.xyz.T, dtype=np.float64)
    radius = np.hypot(x, y)
    turn = np.arctan2(y, x)
    turn += np.pi
    turn /= 2 * np.pi
    turn *= n_rays
    ray = turn.astype(np.int64)
    ray %= n_rays
    # The narrowest type that holds a ray number: see _ray_walk_order.
    ray = ray.astype(np.min_scalar_type(n_rays - 1))
    ground_level = -sensor_height
    # Within a ray compare each point to its radially preceding
    # neighbour (vectorized approximation of the sequential ground-chain
    # walk); a ray's first point to the foot of the sensor.
    order = _ray_walk_order(ray, radius)
    ray_s = ray[order]
    radius_s = radius[order]
    z_s = z[order]
    first_of_ray = np.flatnonzero(
        np.concatenate(([True], ray_s[1:] != ray_s[:-1]))
    )
    dr = np.empty_like(radius_s)
    dz = np.empty_like(z_s)
    np.subtract(radius_s[1:], radius_s[:-1], out=dr[1:])
    np.subtract(z_s[1:], z_s[:-1], out=dz[1:])
    dr[first_of_ray] = radius_s[first_of_ray]
    dz[first_of_ray] = z_s[first_of_ray] - ground_level
    np.maximum(dr, 1e-3, out=dr)
    slope = np.abs(dz, out=dz)
    slope /= dr
    near_ground = np.abs(z_s - ground_level) < height_threshold
    ground_sorted = near_ground & (slope < slope_threshold)
    mask = np.zeros(len(cloud), dtype=bool)
    mask[order] = ground_sorted
    return mask


class WrapperPointCloud(PointCloud):
    """``PointCloud`` with the wrapper-era ``concatenate`` and ``select``."""

    def concatenate(self, other: "PointCloud") -> "PointCloud":
        """Join two clouds (fusion); keeps this cloud's header."""
        return PointCloud(
            points=np.vstack([self.points, other.points]),
            frame_index=self.frame_index,
            stamp=min(self.stamp, other.stamp),
            frame_id=self.frame_id,
        )

    def select(self, mask: np.ndarray) -> "PointCloud":
        """A new cloud containing the masked subset of points."""
        return PointCloud(
            points=self.points[mask],
            frame_index=self.frame_index,
            stamp=self.stamp,
            frame_id=self.frame_id,
        )


class WrapperScenario(DrivingScenario):
    """``DrivingScenario`` with the wrapper-era lidar synthesis."""

    def lidar_frame(self, frame: int, mount: str, stamp: int = 0) -> PointCloud:
        """Synthesize the sweep of the front or rear lidar for *frame*."""
        if mount not in ("front", "rear"):
            raise ValueError(f"unknown mount {mount!r}")
        objects = self._snapshot(frame)
        cfg = self.config
        rng = np.random.default_rng(
            (cfg.seed * 1_000_003 + frame * 97 + (0 if mount == "front" else 1))
            % (2**63)
        )
        parts = [self._ground_sweep(rng)]
        x_sign = 1.0 if mount == "front" else -1.0
        for obj in objects:
            # Each lidar sees objects in its half-space (plus overlap).
            if x_sign * obj.x < -5:
                continue
            parts.append(self._object_returns(rng, obj))
        return PointCloud(points=np.concatenate(parts), frame_index=frame,
                          stamp=stamp, frame_id=f"lidar_{mount}")

    def _ground_sweep(self, rng: np.random.Generator) -> np.ndarray:
        xy = self._ground_xy
        sweep = np.empty((len(xy), 4), dtype=np.float32)
        sweep[:, :2] = xy
        sweep[:, 2] = rng.normal(-SENSOR_HEIGHT_M, GROUND_NOISE_M, size=len(xy))
        sweep[:, 3] = rng.uniform(0.1, 0.4, size=len(xy))
        return sweep

    def _object_returns(self, rng: np.random.Generator, obj: _SceneObject) -> np.ndarray:
        cfg = self.config
        distance = max(1.0, np.hypot(obj.x, obj.y))
        # Point density falls off with distance (solid angle).
        count = max(
            10,
            int(rng.poisson(cfg.points_per_object_mean * min(1.0, 10.0 / distance))),
        )
        returns = np.empty((count, 4), dtype=np.float32)
        returns[:, 0] = rng.uniform(-obj.length / 2, obj.length / 2, count) + obj.x
        returns[:, 1] = rng.uniform(-obj.width / 2, obj.width / 2, count) + obj.y
        returns[:, 2] = rng.uniform(0, obj.height, count) - SENSOR_HEIGHT_M
        returns[:, 3] = rng.uniform(0.4, 1.0, count)
        return returns


def perceive(cloud: PointCloud, eps: float, min_points: int):
    """The wrapper kernels' view of *cloud*, counted in ``COMPARED``:
    its ground mask, its ground and non-ground clouds, and the clusters
    and boxes of the whole cloud and of its non-ground points."""
    global COMPARED
    COMPARED += 1
    wrapped = WrapperPointCloud(
        cloud.points, cloud.frame_index, cloud.stamp, cloud.frame_id
    )
    mask = classify_ground(cloud)
    ground, nonground = wrapped.select(mask), wrapped.select(~mask)
    clustered = []
    for xyz in (cloud.xyz, nonground.xyz):
        clusters = euclidean_clusters(xyz, eps=eps, min_points=min_points)
        clustered.append((clusters, boxes_from_clusters(xyz, clusters)))
    return mask, ground, nonground, clustered


# ----------------------------------------------------------------------
# The older kernels
# ----------------------------------------------------------------------
#: The 13 cell offsets of the half space (dx, dy, dz) > (0, 0, 0): every
#: adjacent pair of cells is found once, from its lexicographically
#: smaller side.
_HALF_SPACE_OFFSETS = [
    (dx, dy, dz)
    for dx in (0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
]


def adjacent_cells_13_offsets(
    cell_keys: np.ndarray, strides: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Index pairs (into *cell_keys*) of occupied cells that touch."""
    stride_x, stride_y = strides
    deltas = np.array(
        [dx * stride_x + dy * stride_y + dz for dx, dy, dz in _HALF_SPACE_OFFSETS],
        dtype=np.int64,
    )
    n_cells = len(cell_keys)
    wanted = (cell_keys + deltas[:, None]).ravel()
    found = np.searchsorted(cell_keys, wanted)
    np.minimum(found, n_cells - 1, out=found)
    hits = np.flatnonzero(cell_keys[found] == wanted)
    return hits % n_cells, found[hits]


def classify_ground_lexsort(
    cloud: PointCloud,
    sensor_height: float = 1.8,
    height_threshold: float = 0.25,
    slope_threshold: float = 0.12,
    n_rays: int = 256,
) -> np.ndarray:
    """Return a boolean ground mask for *cloud*.

    Pure function (unit-testable numerics); the service below wraps it
    with cost modelling and pub/sub plumbing.
    """
    if len(cloud) == 0:
        return np.zeros(0, dtype=bool)
    xyz = cloud.xyz
    x, y, z = xyz[:, 0].astype(np.float64), xyz[:, 1].astype(np.float64), xyz[:, 2].astype(np.float64)
    radius = np.hypot(x, y)
    azimuth = np.arctan2(y, x)
    ray = ((azimuth + np.pi) / (2 * np.pi) * n_rays).astype(np.int64) % n_rays
    ground_level = -sensor_height
    # Sort points by (ray, radius); within a ray compare each point to
    # its radially preceding neighbour (vectorized approximation of the
    # sequential ground-chain walk).
    order = np.lexsort((radius, ray))
    ray_s = ray[order]
    radius_s = radius[order]
    z_s = z[order]
    first_of_ray = np.empty(len(order), dtype=bool)
    first_of_ray[0] = True
    first_of_ray[1:] = ray_s[1:] != ray_s[:-1]
    prev_r = np.empty_like(radius_s)
    prev_z = np.empty_like(z_s)
    prev_r[1:] = radius_s[:-1]
    prev_z[1:] = z_s[:-1]
    prev_r[first_of_ray] = 0.0
    prev_z[first_of_ray] = ground_level
    dr = np.maximum(radius_s - prev_r, 1e-3)
    slope = np.abs(z_s - prev_z) / dr
    near_ground = np.abs(z_s - ground_level) < height_threshold
    ground_sorted = near_ground & (slope < slope_threshold)
    mask = np.zeros(len(cloud), dtype=bool)
    mask[order] = ground_sorted
    return mask


class PerCallGeometryScenario(DrivingScenario):
    """``DrivingScenario`` with the lidar synthesis of before PR 15."""

    def lidar_frame(self, frame: int, mount: str, stamp: int = 0) -> PointCloud:
        """Synthesize the sweep of the front or rear lidar for *frame*."""
        if mount not in ("front", "rear"):
            raise ValueError(f"unknown mount {mount!r}")
        objects = self._snapshot(frame)
        cfg = self.config
        rng = np.random.default_rng(
            (cfg.seed * 1_000_003 + frame * 97 + (0 if mount == "front" else 1))
            % (2**63)
        )
        parts = [self._ground_sweep(rng)]
        x_sign = 1.0 if mount == "front" else -1.0
        for obj in objects:
            # Each lidar sees objects in its half-space (plus overlap).
            if x_sign * obj.x < -5:
                continue
            parts.append(self._object_returns(rng, obj))
        points = np.vstack(parts).astype(np.float32)
        return PointCloud(points=points, frame_index=frame, stamp=stamp,
                          frame_id=f"lidar_{mount}")

    def _ground_sweep(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        radii = (np.arange(1, cfg.ground_rings + 1) * cfg.ring_spacing_m)
        angles = np.linspace(0, 2 * np.pi, cfg.points_per_ring, endpoint=False)
        rr, aa = np.meshgrid(radii, angles, indexing="ij")
        x = (rr * np.cos(aa)).ravel()
        y = (rr * np.sin(aa)).ravel()
        z = rng.normal(-SENSOR_HEIGHT_M, GROUND_NOISE_M, size=x.shape)
        intensity = rng.uniform(0.1, 0.4, size=x.shape)
        return np.column_stack([x, y, z, intensity])

    def _object_returns(self, rng: np.random.Generator, obj: _SceneObject) -> np.ndarray:
        cfg = self.config
        distance = max(1.0, np.hypot(obj.x, obj.y))
        # Point density falls off with distance (solid angle).
        count = max(
            10,
            int(rng.poisson(cfg.points_per_object_mean * min(1.0, 10.0 / distance))),
        )
        x = rng.uniform(-obj.length / 2, obj.length / 2, count) + obj.x
        y = rng.uniform(-obj.width / 2, obj.width / 2, count) + obj.y
        z = rng.uniform(0, obj.height, count) - SENSOR_HEIGHT_M
        intensity = rng.uniform(0.4, 1.0, count)
        return np.column_stack([x, y, z, intensity])
