"""Ray-ground classification: splits a cloud into ground / non-ground.

A simplified version of Autoware's ray-ground classifier: points are
binned by azimuth ray; within each ray, sorted by range, a point is
ground if its height stays near the expected ground level and the local
slope to the previous ground point is below a threshold.  The service
publishes ground points and non-ground points as two separate topics,
exactly like the paper's classifier on ECU2.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dds.topic import Topic
from repro.perception.pointcloud import PointCloud
from repro.ros.node import Node
from repro.sim.threads import Compute
from repro.sim.workload import AffineModel, ExecutionTimeModel


def _ray_walk_order(ray: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Point indices sorted by (ray, radius): ``np.lexsort((radius, ray))``.

    Two stable passes, least significant key first, give exactly
    lexsort's order -- ties keep index order -- at half its cost when
    *ray* is a 16-bit or narrower integer, which numpy radix-sorts.
    """
    by_radius = radius.argsort(kind="stable")
    return by_radius[ray[by_radius].argsort(kind="stable")]


def classify_ground(
    cloud: PointCloud,
    sensor_height: float = 1.8,
    height_threshold: float = 0.25,
    slope_threshold: float = 0.12,
    n_rays: int = 256,
) -> np.ndarray:
    """Return a boolean ground mask for *cloud*.

    Pure function (unit-testable numerics); the service below wraps it
    with cost modelling and pub/sub plumbing.  Raises ``ValueError``
    unless *n_rays* is at least 1 and every coordinate is finite (a NaN
    or infinite point has no ray and no height).
    """
    if not n_rays >= 1:
        raise ValueError(
            f"classify_ground: n_rays must be at least 1, got {n_rays!r}"
        )
    n = len(cloud)
    if n == 0:
        return np.zeros(0, dtype=bool)
    xyz = np.ascontiguousarray(cloud.xyz.T, dtype=np.float64)
    if not np.logical_and.reduce(np.isfinite(xyz), axis=None):
        raise ValueError(
            "classify_ground: non-finite point coordinates (NaN/inf)"
        )
    x, y, z = xyz
    radius = np.hypot(x, y)
    turn = np.arctan2(y, x)
    turn += np.pi
    turn /= 2 * np.pi
    turn *= n_rays
    # The narrowest type that holds a ray number: see _ray_walk_order.
    ray = np.empty(n, dtype=(
        np.uint8 if n_rays <= 1 << 8 else
        np.uint16 if n_rays <= 1 << 16 else np.int64
    ))
    np.remainder(turn.astype(np.int64), n_rays, out=ray, casting="unsafe")
    ground_level = -sensor_height
    # Within a ray compare each point to its radially preceding
    # neighbour (vectorized approximation of the sequential ground-chain
    # walk); a ray's first point to the foot of the sensor.
    order = _ray_walk_order(ray, radius)
    ray_s = ray[order]
    radius_s = radius[order]
    z_s = z[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(ray_s[1:], ray_s[:-1], out=first[1:])
    first_of_ray = first.nonzero()[0]
    dr = np.empty(n)
    dz = np.empty(n)
    np.subtract(radius_s[1:], radius_s[:-1], out=dr[1:])
    np.subtract(z_s[1:], z_s[:-1], out=dz[1:])
    dr[first_of_ray] = radius_s[first_of_ray]
    dz[first_of_ray] = z_s[first_of_ray] - ground_level
    np.maximum(dr, 1e-3, out=dr)
    slope = np.abs(dz, out=dz)
    slope /= dr
    height = np.subtract(z_s, ground_level)
    ground_sorted = np.abs(height, out=height) < height_threshold
    ground_sorted &= slope < slope_threshold
    # order is a permutation: every slot of the mask is written.
    mask = np.empty(n, dtype=bool)
    mask[order] = ground_sorted
    return mask


class RayGroundClassifier:
    """The classifier service on ECU2.

    Subscribes to the fused cloud, publishes ``ground_points`` and
    ``points_nonground``.
    """

    def __init__(
        self,
        node: Node,
        topic_in: Topic,
        topic_ground: Topic,
        topic_nonground: Topic,
        classify_model: Optional[ExecutionTimeModel] = None,
        sensor_height: float = 1.8,
    ):
        self.node = node
        self.classify_model = classify_model or AffineModel(
            base_ns=2_000_000, per_item_ns=400, noise=0.2
        )
        self.sensor_height = sensor_height
        self.pub_ground = node.create_publisher(topic_ground)
        self.pub_nonground = node.create_publisher(topic_nonground)
        self.classified_count = 0
        self.subscription = node.create_subscription(topic_in, self._on_cloud)

    def _on_cloud(self, sample):
        cloud: PointCloud = sample.data
        work = self.classify_model.sample(
            self.node.ecu.sim.rng("classifier"), size=len(cloud)
        )
        yield Compute(work)
        mask = classify_ground(cloud, sensor_height=self.sensor_height)
        ground = cloud.select(mask)
        nonground = cloud.select(~mask)
        self.pub_ground.publish(ground)
        self.pub_nonground.publish(nonground)
        self.classified_count += 1
