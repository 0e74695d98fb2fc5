"""Shared experiment configuration."""

from __future__ import annotations

import os
from typing import Callable, Dict

from repro.perception.stack import StackConfig
from repro.sim import BurstyGovernor, msec
from repro.sim.cpu import FrequencyGovernor


def default_frames(fallback: int = 400) -> int:
    """Number of chain activations to simulate.

    Controlled by the ``REPRO_FRAMES`` environment variable; the paper's
    Fig. 9 used ~4700 data points per segment (``REPRO_FRAMES=4700``).
    """
    value = os.environ.get("REPRO_FRAMES")
    if value:
        return max(10, int(value))
    return fallback


def interference_governor(
    slow_min: float = 0.08,
    slow_max: float = 0.4,
    mean_interval_ms: float = 350.0,
    mean_dwell_ms: float = 90.0,
) -> Callable[[], FrequencyGovernor]:
    """The ECU2 interference model used by the evaluation experiments.

    Stands in for the paper's "performance and power optimizations"
    (thread migration was already allowed; frequency scaling and
    co-running interference produce the heavy latency tail of Fig. 9).
    """

    def factory() -> FrequencyGovernor:
        return BurstyGovernor(
            nominal=1.0,
            slow_min=slow_min,
            slow_max=slow_max,
            mean_interval=msec(mean_interval_ms),
            mean_dwell=msec(mean_dwell_ms),
        )

    return factory


#: The three golden scenario configurations, as ``StackConfig`` keywords:
#: a benign run, a run under ECU2 frequency interference (latency tail +
#: exceptions), and a lossy-link run (retransmits + remote monitor
#: timeouts).  ``python -m repro trace --scenario`` runs them, and
#: ``tests/golden/golden_digests.json`` pins their digests as
#: ``<name>_seed<seed>``.
GOLDEN_SCENARIOS: Dict[str, dict] = {
    "benign": {"seed": 1},
    "interference": {"seed": 42, "ecu2_governor": interference_governor()},
    "lossy_link": {"seed": 7, "link_loss": 0.08},
}


def golden_config(name: str, **overrides) -> StackConfig:
    """A fresh :class:`StackConfig` of one golden scenario."""
    return StackConfig(**{**GOLDEN_SCENARIOS[name], **overrides})
