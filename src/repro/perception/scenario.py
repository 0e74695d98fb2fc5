"""Synthetic driving scenarios replacing the Autoware.Auto pcap data.

Each frame of a scenario yields a lidar sweep: ground-plane returns
(regular polar grid with noise) plus clusters of returns from moving
objects (vehicles/pedestrians) whose count and position evolve over
time.  The per-frame point count therefore fluctuates -- the property
that makes downstream execution times data-dependent, which is all the
pcap data contributed to the paper's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.perception.pointcloud import PointCloud


#: World constants no caller varies (DESIGN.md "Options").
GROUND_NOISE_M = 0.04
DESPAWN_PROB = 0.05
OBJECT_SPEED_MPS = 8.0
FRAME_RATE_HZ = 10.0
SENSOR_HEIGHT_M = 1.8


@dataclass
class ScenarioConfig:
    """Parameters of the synthetic world.

    ``ground_rings``/``points_per_ring`` size the ground sweep;
    ``max_objects`` bounds how many obstacles exist simultaneously;
    object churn (spawn/despawn) follows per-frame probabilities.
    """

    seed: int = 0
    ground_rings: int = 16
    points_per_ring: int = 180
    ring_spacing_m: float = 1.5
    max_objects: int = 8
    spawn_prob: float = 0.15
    points_per_object_mean: int = 220


@dataclass
class _SceneObject:
    x: float
    y: float
    vx: float
    vy: float
    width: float
    length: float
    height: float


class DrivingScenario:
    """Deterministic frame-by-frame scene evolution.

    Use :meth:`lidar_frame` to synthesize the sweep a lidar mounted at
    ``mount`` ("front" or "rear") would capture for a given frame.
    Frames must be requested in non-decreasing order per scenario.
    """

    #: How many past frame snapshots to retain (two lidars may request
    #: the same or slightly lagging frames).
    SNAPSHOT_KEEP = 64

    def __init__(
        self,
        config: Optional[ScenarioConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.config = config or ScenarioConfig()
        # An injected generator wins over the config seed so campaigns
        # can share one stream; the default remains self-seeded -- never
        # the global numpy state.
        self._rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self._objects: List[_SceneObject] = []
        self._frame = -1
        self._snapshots: dict = {}
        # The ground rings are a fixed polar grid: x and y of every
        # sweep, synthesised once.  Never handed out (sweeps copy it).
        cfg = self.config
        radii = np.arange(1, cfg.ground_rings + 1) * cfg.ring_spacing_m
        angles = np.linspace(0, 2 * np.pi, cfg.points_per_ring, endpoint=False)
        self._ground_xy = np.empty((len(radii) * len(angles), 2), dtype=np.float32)
        self._ground_xy[:, 0] = np.outer(radii, np.cos(angles)).ravel()
        self._ground_xy[:, 1] = np.outer(radii, np.sin(angles)).ravel()

    # ------------------------------------------------------------------
    # World evolution
    # ------------------------------------------------------------------
    def _snapshot(self, frame: int) -> List[_SceneObject]:
        """Object states at *frame*; evolves the world forward on demand.

        Snapshots of recent frames are cached so the two lidar drivers
        can sample the same frame (or lag slightly) independently.
        """
        if frame in self._snapshots:
            return self._snapshots[frame]
        if frame < self._frame:
            raise ValueError(
                f"frame {frame} is older than the snapshot horizon "
                f"(current {self._frame}, keep {self.SNAPSHOT_KEEP})"
            )
        dt = 1.0 / FRAME_RATE_HZ
        while self._frame < frame:
            self._frame += 1
            # Move objects.
            for obj in self._objects:
                obj.x += obj.vx * dt
                obj.y += obj.vy * dt
            # Despawn.
            self._objects = [
                obj
                for obj in self._objects
                if self._rng.random() > DESPAWN_PROB
                and abs(obj.x) < 80
                and abs(obj.y) < 40
            ]
            # Spawn.
            if (
                len(self._objects) < self.config.max_objects
                and self._rng.random() < self.config.spawn_prob
            ):
                self._objects.append(self._spawn_object())
            self._snapshots[self._frame] = [
                _SceneObject(**vars(obj)) for obj in self._objects
            ]
            stale = self._frame - self.SNAPSHOT_KEEP
            self._snapshots.pop(stale, None)
        return self._snapshots[frame]

    def _spawn_object(self) -> _SceneObject:
        rng = self._rng
        is_vehicle = rng.random() < 0.7
        speed = OBJECT_SPEED_MPS * float(rng.uniform(0.2, 1.5))
        heading = float(rng.uniform(0, 2 * np.pi))
        return _SceneObject(
            x=float(rng.uniform(-60, 60)),
            y=float(rng.uniform(-25, 25)),
            vx=speed * np.cos(heading),
            vy=speed * np.sin(heading),
            width=float(rng.uniform(1.6, 2.2)) if is_vehicle else float(rng.uniform(0.4, 0.8)),
            length=float(rng.uniform(3.8, 5.2)) if is_vehicle else float(rng.uniform(0.4, 0.8)),
            height=float(rng.uniform(1.4, 2.0)) if is_vehicle else float(rng.uniform(1.5, 1.9)),
        )

    @property
    def object_count(self) -> int:
        """Number of live objects in the current frame."""
        return len(self._objects)

    # ------------------------------------------------------------------
    # Lidar synthesis
    # ------------------------------------------------------------------
    def lidar_frame(self, frame: int, mount: str, stamp: int = 0) -> PointCloud:
        """Synthesize the sweep of the front or rear lidar for *frame*.

        The draws come in a fixed order -- the ground's heights and
        intensities, then each visible object's count and columns -- so
        the sweep is allocated after the last of them and every column
        is cast into it once.
        """
        if mount not in ("front", "rear"):
            raise ValueError(f"unknown mount {mount!r}")
        objects = self._snapshot(frame)
        cfg = self.config
        rng = np.random.default_rng(
            (cfg.seed * 1_000_003 + frame * 97 + (0 if mount == "front" else 1))
            % (2**63)
        )
        n_ground = len(self._ground_xy)
        ground_z = rng.normal(-SENSOR_HEIGHT_M, GROUND_NOISE_M, size=n_ground)
        ground_intensity = rng.uniform(0.1, 0.4, size=n_ground)
        x_sign = 1.0 if mount == "front" else -1.0
        returns = []
        n_points = n_ground
        for obj in objects:
            # Each lidar sees objects in its half-space (plus overlap).
            if x_sign * obj.x < -5:
                continue
            returns.append(self._object_returns(rng, obj))
            n_points += len(returns[-1][0])
        points = np.empty((n_points, 4), dtype=np.float32)
        points[:n_ground, :2] = self._ground_xy
        points[:n_ground, 2] = ground_z
        points[:n_ground, 3] = ground_intensity
        start = n_ground
        for columns in returns:
            rows = points[start:start + len(columns[0])]
            for axis, values in enumerate(columns):
                rows[:, axis] = values
            start += len(rows)
        return PointCloud(points=points, frame_index=frame, stamp=stamp,
                          frame_id=f"lidar_{mount}")

    def _object_returns(
        self, rng: np.random.Generator, obj: _SceneObject
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The x, y, z and intensity columns of one object's returns."""
        cfg = self.config
        distance = max(1.0, np.hypot(obj.x, obj.y))
        # Point density falls off with distance (solid angle).
        count = max(
            10,
            int(rng.poisson(cfg.points_per_object_mean * min(1.0, 10.0 / distance))),
        )
        return (
            rng.uniform(-obj.length / 2, obj.length / 2, count) + obj.x,
            rng.uniform(-obj.width / 2, obj.width / 2, count) + obj.y,
            rng.uniform(0, obj.height, count) - SENSOR_HEIGHT_M,
            rng.uniform(0.4, 1.0, count),
        )
