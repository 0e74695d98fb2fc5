"""Point clouds: the payload flowing through the perception chain."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class PointCloud:
    """An (N, 4) float32 array of (x, y, z, intensity) points + header.

    The header carries the *frame index* -- the chain activation number
    assigned by the originating lidar driver and preserved through every
    processing stage, which is how monitors key their per-activation
    bookkeeping -- and the capture timestamp (sensor clock).
    """

    points: np.ndarray
    frame_index: int
    stamp: int
    frame_id: str = "base_link"

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float32)
        if self.points.ndim != 2 or self.points.shape[1] != 4:
            raise ValueError(
                f"expected (N, 4) point array, got shape {self.points.shape}"
            )

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def nbytes(self) -> int:
        """Serialized payload size (drives network/copy costs)."""
        return int(self.points.nbytes) + 64  # header overhead

    @property
    def xyz(self) -> np.ndarray:
        """The (N, 3) coordinate block."""
        return self.points[:, :3]

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

    @staticmethod
    def empty(frame_index: int = 0, stamp: int = 0) -> "PointCloud":
        """A cloud with zero points (recovery placeholder)."""
        return PointCloud(
            points=np.empty((0, 4), dtype=np.float32),
            frame_index=frame_index,
            stamp=stamp,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PointCloud frame={self.frame_index} n={len(self)}>"
