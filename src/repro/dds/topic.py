"""Topics and samples.

A :class:`Sample` carries the *source timestamp* stamped by the writer
from its ECU-local clock.  This is the timestamp that "is natively passed
up to the DDS Subscriber" and that the paper's synchronization-based
remote monitor interprets at the receiver (valid because ECU clocks are
PTP-synchronized to within epsilon).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional


def _default_size(data: Any) -> int:
    """Best-effort serialized size estimate for arbitrary payloads."""
    nbytes = getattr(data, "nbytes", None)
    if nbytes is not None:
        return int(nbytes) + 64  # CDR header overhead
    if isinstance(data, (bytes, bytearray)):
        return len(data) + 64
    return 256


class Topic:
    """A named, typed communication channel.

    Parameters
    ----------
    name:
        Topic name (e.g. ``"points_fused"``).
    type_name:
        Informational type string (e.g. ``"PointCloud2"``).
    size_fn:
        Maps a payload to its serialized size in bytes (drives link
        serialization delay and copy costs).

    Samples may carry an instance key (:attr:`Sample.key`) on any topic:
    the paper's one monitor per communication partner is
    "differentiated based on delivered DDS topic keys".
    """

    def __init__(
        self,
        name: str,
        type_name: str = "bytes",
        size_fn: Optional[Callable[[Any], int]] = None,
    ):
        if not name:
            raise ValueError("topic name must be non-empty")
        self.name = name
        self.type_name = type_name
        self.size_fn = size_fn or _default_size

    def serialized_size(self, data: Any) -> int:
        """Serialized size of *data* in bytes."""
        return self.size_fn(data)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Topic {self.name} [{self.type_name}]>"


_next_sample_id = itertools.count(1).__next__


class Sample:
    """One published datum travelling writer -> reader(s).

    A ``__slots__`` record rather than a dataclass: one instance is
    allocated per publication per matched reader path, which makes
    construction cost part of the DDS hot path.
    """

    __slots__ = (
        "topic",
        "data",
        "source_timestamp",
        "sequence_number",
        "writer_id",
        "key",
        "recovered",
        "uid",
        "ctx",
    )

    def __init__(
        self,
        topic: Topic,
        data: Any,
        source_timestamp: int,
        sequence_number: int,
        writer_id: str = "",
        key: Optional[str] = None,
        recovered: bool = False,
        uid: Optional[int] = None,
    ):
        self.topic = topic
        self.data = data
        #: Writer-local clock value at publication (the DDS source timestamp).
        self.source_timestamp = source_timestamp
        #: Per-writer monotonically increasing sequence number (activation n).
        self.sequence_number = sequence_number
        #: Identifier of the publishing writer (for keyed differentiation).
        self.writer_id = writer_id
        #: Instance key for keyed topics (None for unkeyed).
        self.key = key
        #: Marks data substituted by a recovery handler rather than published.
        self.recovered = recovered
        #: Unique id (diagnostics).
        self.uid = uid if uid is not None else _next_sample_id()
        #: Publication span context (span tracing only; set by the
        #: writer, never mutated downstream -- one sample instance is
        #: shared by every matched reader).
        self.ctx = None

    @property
    def size_bytes(self) -> int:
        """Serialized size (topic-defined)."""
        return self.topic.serialized_size(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Sample(topic={self.topic!r}, data={self.data!r}, "
            f"source_timestamp={self.source_timestamp!r}, "
            f"sequence_number={self.sequence_number!r}, "
            f"writer_id={self.writer_id!r}, key={self.key!r}, "
            f"recovered={self.recovered!r}, uid={self.uid!r})"
        )
