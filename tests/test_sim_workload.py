"""Unit tests for execution-time models."""

import numpy as np
import pytest

from repro.sim import AffineModel, usec


def rng():
    return np.random.default_rng(123)


class TestAffineModel:
    def test_scales_with_size(self):
        model = AffineModel(base_ns=usec(10), per_item_ns=100)
        assert model.sample(rng(), size=0) == usec(10)
        assert model.sample(rng(), size=1000) == usec(10) + 100_000

    def test_noise_within_bounds(self):
        model = AffineModel(base_ns=usec(100), per_item_ns=0, noise=0.2)
        generator = rng()
        samples = [model.sample(generator) for _ in range(500)]
        assert all(usec(80) <= s <= usec(120) for s in samples)
        assert len(set(samples)) > 1

    def test_bound_covers_all_samples(self):
        model = AffineModel(base_ns=usec(100), per_item_ns=10, noise=0.3)
        bound = model.bound(size=50)
        generator = rng()
        assert all(model.sample(generator, size=50) <= bound for _ in range(500))

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            AffineModel(1, noise=1.5)
