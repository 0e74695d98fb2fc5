"""Point-to-point link model with latency, jitter, bandwidth and loss.

A frame's delivery time is::

    t_deliver = t_send + serialization(size) + base_latency + jitter

with ``serialization(size) = size_bytes * 8 / bandwidth_bps``.  Deliveries
on one link never reorder (FIFO), matching the in-order delivery the
paper's system model assumes for middleware messages.  Loss is i.i.d.
per frame; the DDS layer decides whether lost frames are retransmitted
(RELIABLE) or dropped (BEST_EFFORT).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.sim.kernel import Simulator, usec


@dataclass
class Frame:
    """A unit of transmission between ECUs."""

    payload: Any
    size_bytes: int
    src: str
    dst: str
    seq: int = 0
    #: Sender-side local timestamp (sender clock), set by the transport.
    send_timestamp: int = 0


class JitterModel:
    """Random per-frame extra delay.

    ``kind`` selects the distribution:

    - ``"none"`` -- always zero,
    - ``"uniform"`` -- uniform on ``[0, amplitude]``,
    - ``"lognormal"`` -- lognormal with median ``amplitude/4``, clipped
      to ``[0, 20 * amplitude]`` (rare large spikes).
    """

    def __init__(self, kind: str = "none", amplitude: int = 0):
        if kind not in ("none", "uniform", "lognormal"):
            raise ValueError(f"unknown jitter kind {kind!r}")
        if amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        self.kind = kind
        self.amplitude = int(amplitude)

    def sample(self, rng: np.random.Generator) -> int:
        if self.kind == "none" or self.amplitude == 0:
            return 0
        if self.kind == "uniform":
            return int(rng.integers(0, self.amplitude + 1))
        # lognormal
        value = (self.amplitude / 4.0) * float(rng.lognormal(0.0, 1.0))
        return int(min(value, 20.0 * self.amplitude))


@dataclass
class LinkStats:
    """Cumulative link counters."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    bytes_sent: int = 0


class Link:
    """A unidirectional link between two ECUs.

    Parameters
    ----------
    sim:
        Simulation kernel.
    name:
        Identifier (used for the RNG stream and traces).
    base_latency:
        Fixed propagation + switching delay in ns.
    jitter:
        Random extra delay model.
    bandwidth_bps:
        Serialization rate; 1 Gbit/s by default.
    loss_prob:
        Per-frame i.i.d. loss probability.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        base_latency: int = usec(100),
        jitter: Optional[JitterModel] = None,
        bandwidth_bps: float = 1e9,
        loss_prob: float = 0.0,
    ):
        if base_latency < 0:
            raise ValueError("base latency must be non-negative")
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if not (0.0 <= loss_prob < 1.0):
            raise ValueError("loss probability must be in [0, 1)")
        self.sim = sim
        self.name = name
        self.base_latency = int(base_latency)
        self.jitter = jitter or JitterModel()
        self.bandwidth_bps = float(bandwidth_bps)
        self.loss_prob = float(loss_prob)
        self.stats = LinkStats()
        self._seq = itertools.count()
        self._last_delivery = 0
        self._rng = None
        self._deliver_label = f"link:{name}:deliver"
        #: Optional hook called as ``fn(frame)`` when a frame is lost.
        self.on_loss: Optional[Callable[[Frame], None]] = None
        #: Optional targeted-loss predicate for fault injection: return
        #: True to drop this frame regardless of ``loss_prob``.
        self.loss_filter: Optional[Callable[[Frame], bool]] = None

    def serialization_delay(self, size_bytes: int) -> int:
        """Time to clock *size_bytes* onto the wire, in ns."""
        return int(size_bytes * 8 / self.bandwidth_bps * 1e9)

    def transmit(self, frame: Frame, deliver: Callable[[Frame], None]) -> bool:
        """Send *frame*; call *deliver(frame)* at the arrival instant.

        Returns ``False`` if the frame was lost (deliver is then never
        called; the loss hook fires instead).
        """
        rng = self._rng
        if rng is None:
            rng = self._rng = self.sim.rng(f"link:{self.name}")
        frame.seq = next(self._seq)
        self.stats.sent += 1
        self.stats.bytes_sent += frame.size_bytes
        forced_loss = self.loss_filter is not None and self.loss_filter(frame)
        if forced_loss or (self.loss_prob > 0 and rng.random() < self.loss_prob):
            self.stats.lost += 1
            if self.sim.tracing_active:
                self.sim.emit_trace(
                    "link.loss", link=self.name, seq=frame.seq, dst=frame.dst
                )
            if self.on_loss is not None:
                self.on_loss(frame)
            return False
        delay = (
            self.serialization_delay(frame.size_bytes)
            + self.base_latency
            + self.jitter.sample(rng)
        )
        arrival = self.sim.now + delay
        # FIFO guarantee: never deliver before an earlier frame.
        if arrival <= self._last_delivery:
            arrival = self._last_delivery + 1
        self._last_delivery = arrival
        self.sim.schedule_at(
            arrival,
            self._deliver,
            frame,
            deliver,
            label=self._deliver_label,
        )
        return True

    def _deliver(self, frame: Frame, deliver: Callable[[Frame], None]) -> None:
        self.stats.delivered += 1
        if self.sim.tracing_active:
            self.sim.emit_trace(
                "link.deliver", link=self.name, seq=frame.seq, dst=frame.dst
            )
        deliver(frame)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name} base={self.base_latency}ns loss={self.loss_prob}>"
