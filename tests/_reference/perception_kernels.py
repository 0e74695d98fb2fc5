"""The perception kernels as they shipped until PR 15.

Kept verbatim as the oracles of
``tests/test_perception_kernels_differential.py`` when PR 15 replaced,
in ``src/``:

- ``_adjacent_cells``: one 13 x n ``searchsorted`` over the half-space
  offsets, by one search per (dx, dy) column plus the two following
  slots (same edge set, any order);
- ``classify_ground``: the ``np.lexsort((radius, ray))`` walk order and
  the shifted-copy slope computation, by two stable argsorts and
  in-place differences (same mask);
- ``DrivingScenario.lidar_frame``: ring geometry rebuilt on every sweep
  and a float64 ``column_stack`` -> ``vstack`` -> ``astype(float32)``,
  by cached ring x/y and float32 parts (same bytes, same RNG draws).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.perception.pointcloud import PointCloud
from repro.perception.scenario import (
    GROUND_NOISE_M,
    SENSOR_HEIGHT_M,
    DrivingScenario,
    _SceneObject,
)

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


def _adjacent_cells(
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
