"""DDS Quality-of-Service policies.

Only the policies the paper touches are modelled:

- ``RELIABILITY`` -- BEST_EFFORT drops lost frames; RELIABLE retries
  them, trading latency for delivery (the paper notes its monitor is
  transparent to DDS retransmissions).
- ``HISTORY`` -- KEEP_LAST(depth) bounds the reader queue.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ReliabilityKind(enum.Enum):
    """Delivery guarantee for a writer/reader pair."""

    BEST_EFFORT = "best_effort"
    RELIABLE = "reliable"


class HistoryKind(enum.Enum):
    """Sample retention discipline on the reader side."""

    KEEP_LAST = "keep_last"
    KEEP_ALL = "keep_all"


@dataclass(frozen=True)
class QosProfile:
    """A bundle of QoS policies for an endpoint.

    Parameters
    ----------
    reliability:
        BEST_EFFORT (default, sensor-style) or RELIABLE.
    history:
        KEEP_LAST with ``history_depth`` or KEEP_ALL.
    history_depth:
        Queue bound for KEEP_LAST.
    max_retransmits:
        For RELIABLE: how many times a lost frame is retried.
    retransmit_delay:
        For RELIABLE: delay in ns before a retry (models the
        heartbeat/NACK round trip).
    """

    reliability: ReliabilityKind = ReliabilityKind.BEST_EFFORT
    history: HistoryKind = HistoryKind.KEEP_LAST
    history_depth: int = 10
    max_retransmits: int = 3
    retransmit_delay: int = 500_000  # 0.5 ms

    def __post_init__(self) -> None:
        if self.history_depth < 1:
            raise ValueError("history_depth must be >= 1")
        if self.max_retransmits < 0:
            raise ValueError("max_retransmits must be >= 0")
        if self.retransmit_delay < 0:
            raise ValueError("retransmit_delay must be >= 0")

    def compatible_with(self, offered: "QosProfile") -> bool:
        """Requested-vs-offered check (reader requests, writer offers).

        Follows the DDS rule that a RELIABLE reader cannot match a
        BEST_EFFORT writer; everything else modelled here matches.
        """
        if (
            self.reliability is ReliabilityKind.RELIABLE
            and offered.reliability is ReliabilityKind.BEST_EFFORT
        ):
            return False
        return True


#: Sensible default profile (sensor data, like ROS2's "SensorDataQoS").
DEFAULT_QOS = QosProfile()
