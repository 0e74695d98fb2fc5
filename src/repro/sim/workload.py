"""Execution-time models for synthetic services.

The paper's perception services (fusion, ray-ground classification,
euclidean clustering) have data-dependent execution times whose
distribution -- measured through LTTng traces -- drives the budgeting
CSP.  These models generate such distributions: a deterministic
data-dependent component (points processed) times uniform noise (cache
effects, allocator behaviour); the heavy tails of the paper's Fig. 9
come from frequency scaling (:class:`~repro.sim.cpu.BurstyGovernor`).

All models return integer nanoseconds of *work* (at nominal core speed);
frequency scaling and preemption then shape the observed latency.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class ExecutionTimeModel:
    """Base class: draw one execution time for a given input size."""

    def sample(self, rng: np.random.Generator, size: int = 0) -> int:
        """Return work in ns for an input of *size* items."""
        raise NotImplementedError

    def bound(self, size: int = 0) -> Optional[int]:
        """A conservative upper bound in ns, if one exists (else None)."""
        return None


class AffineModel(ExecutionTimeModel):
    """``base + per_item * size`` with multiplicative uniform noise.

    ``noise`` of 0.1 means each sample is scaled by a factor drawn
    uniformly from ``[1 - 0.1, 1 + 0.1]``.
    """

    def __init__(self, base_ns: int, per_item_ns: float = 0.0, noise: float = 0.0):
        if base_ns < 0 or per_item_ns < 0 or not (0 <= noise < 1):
            raise ValueError("invalid affine model parameters")
        self.base_ns = int(base_ns)
        self.per_item_ns = float(per_item_ns)
        self.noise = float(noise)

    def sample(self, rng: np.random.Generator, size: int = 0) -> int:
        nominal = self.base_ns + self.per_item_ns * size
        if self.noise > 0:
            nominal *= float(rng.uniform(1 - self.noise, 1 + self.noise))
        return max(0, int(nominal))

    def bound(self, size: int = 0) -> Optional[int]:
        return int((self.base_ns + self.per_item_ns * size) * (1 + self.noise)) + 1
