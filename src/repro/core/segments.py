"""Segments: the monitored units an event chain is decomposed into.

A *local* segment starts with a receive event and ends with a
publication (or, as in the paper's evaluation where rviz2 terminates the
chain, another receive) event **on the same ECU**.  A *remote* segment
starts with a publication event and ends with a receive event **on
another ECU**.  Maximizing local segment length yields an alternating
remote/local sequence and minimizes the number of monitored segments.

Each segment carries its deadline split ``d = d_mon + d_ex``: violations
must be *detected* within ``d_mon`` so that exception handling (bounded
by ``d_ex``) completes within ``d``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.events import EventKind, EventPoint


class SegmentKind(enum.Enum):
    """Local (intra-ECU) or remote (inter-ECU) segment."""

    LOCAL = "local"
    REMOTE = "remote"


@dataclass
class Segment:
    """One monitored segment of an event chain.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"s1_fusion"``.
    kind:
        LOCAL or REMOTE.
    start, end:
        The delimiting communication events.  Structural rules are
        enforced: remote segments go publication -> receive across ECUs;
        local segments stay on one ECU and start with a receive.
    d_mon:
        Monitored deadline in ns (None until budgeting assigns one).
    d_ex:
        Reserved exception-handling time in ns (a conservative WCRT of
        the handler, per the paper acquired analytically).
    """

    name: str
    kind: SegmentKind
    start: EventPoint
    end: EventPoint
    d_mon: Optional[int] = None
    d_ex: int = 0

    def __post_init__(self) -> None:
        if self.d_mon is not None and self.d_mon <= 0:
            raise ValueError(f"{self.name}: d_mon must be positive")
        if self.d_ex < 0:
            raise ValueError(f"{self.name}: d_ex must be non-negative")
        if self.kind is SegmentKind.LOCAL:
            if self.start.ecu != self.end.ecu:
                raise ValueError(
                    f"{self.name}: local segment must stay on one ECU "
                    f"({self.start.ecu} != {self.end.ecu})"
                )
            if self.start.kind is not EventKind.RECEIVE:
                raise ValueError(
                    f"{self.name}: local segment must start with a receive event"
                )
        else:
            if self.start.ecu == self.end.ecu:
                raise ValueError(
                    f"{self.name}: remote segment must cross ECUs"
                )
            if self.start.kind is not EventKind.PUBLICATION:
                raise ValueError(
                    f"{self.name}: remote segment must start with a publication"
                )
            if self.end.kind is not EventKind.RECEIVE:
                raise ValueError(
                    f"{self.name}: remote segment must end with a receive"
                )
            if self.start.topic != self.end.topic:
                raise ValueError(
                    f"{self.name}: remote segment must carry one topic "
                    f"({self.start.topic} != {self.end.topic})"
                )

    @property
    def deadline(self) -> Optional[int]:
        """Total segment deadline ``d = d_mon + d_ex`` (None if unset)."""
        if self.d_mon is None:
            return None
        return self.d_mon + self.d_ex


def local_segment(
    name: str,
    ecu: str,
    start_topic: str,
    end_topic: str,
    start_process: str = "",
    end_process: str = "",
    end_kind: EventKind = EventKind.PUBLICATION,
    d_mon: Optional[int] = None,
    d_ex: int = 0,
) -> Segment:
    """Convenience constructor for a local segment."""
    return Segment(
        name=name,
        kind=SegmentKind.LOCAL,
        start=EventPoint(start_topic, EventKind.RECEIVE, ecu, start_process),
        end=EventPoint(end_topic, end_kind, ecu, end_process),
        d_mon=d_mon,
        d_ex=d_ex,
    )


def remote_segment(
    name: str,
    topic: str,
    src_ecu: str,
    dst_ecu: str,
    src_process: str = "",
    dst_process: str = "",
    d_mon: Optional[int] = None,
    d_ex: int = 0,
) -> Segment:
    """Convenience constructor for a remote segment."""
    return Segment(
        name=name,
        kind=SegmentKind.REMOTE,
        start=EventPoint(topic, EventKind.PUBLICATION, src_ecu, src_process),
        end=EventPoint(topic, EventKind.RECEIVE, dst_ecu, dst_process),
        d_mon=d_mon,
        d_ex=d_ex,
    )
