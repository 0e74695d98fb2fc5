"""The record of one injected fault, shared by every fault layer.

The campaign's injectors (:mod:`repro.faults`) and the uplink's
adversarial channel (:mod:`repro.telemetry.uplink.transport`) both
archive what they physically did as :class:`Injection` entries, so
oracles can correlate monitor reports with ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Injection:
    """One physical fault action taken by an injector."""

    #: Fault class, e.g. ``"loss_burst"`` or ``"clock_step"``.
    kind: str
    #: What was faulted (a link, ECU, node or lidar mount name).
    target: str
    #: Simulation-time window during which the fault is active.
    start_ns: int
    end_ns: int
    #: Affected chain activations, when frame-addressable.
    frames: Optional[range] = None
    #: Free-form specifics (drop counts, ppm, stall ns, ...).
    detail: dict = field(default_factory=dict)
