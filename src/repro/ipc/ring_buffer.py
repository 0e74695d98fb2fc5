"""Wait-free single-producer/single-consumer event ring buffer.

Layout (little-endian)::

    [0:8)    head  -- total records ever written (producer-owned)
    [8:16)   tail  -- total records ever consumed (consumer-owned)
    [16:...) capacity * RECORD_SIZE record slots

A record is ``(kind: u8, activation: u64, timestamp_ns: u64)`` padded to
24 bytes.  The producer writes the slot *before* publishing it by
bumping ``head`` (store-release semantics are provided by the GIL /
process memory model for our purposes); the consumer only advances
``tail``.  With exactly one producer and one consumer per buffer -- the
paper's design, one buffer per (segment, event type) -- no locks are
needed, and a full buffer rejects the write (counted by the caller).
"""

from __future__ import annotations

import struct
from typing import List, NamedTuple, Optional

_HEADER = struct.Struct("<QQ")
_RECORD = struct.Struct("<BQQ")
#: Slot size: one record padded for alignment.
RECORD_SIZE = 24
_HEADER_SIZE = 16

#: Record kinds.
KIND_START = 1
KIND_END = 2


class EventRecord(NamedTuple):
    """One event in the buffer."""

    kind: int
    activation: int
    timestamp_ns: int


class SpscRingBuffer:
    """SPSC ring buffer of :class:`EventRecord` over a buffer object."""

    def __init__(self, buf, capacity: int, initialize: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        needed = _HEADER_SIZE + capacity * RECORD_SIZE
        if len(buf) < needed:
            raise ValueError(
                f"buffer too small: need {needed} bytes, have {len(buf)}"
            )
        self._buf = memoryview(buf)
        self.capacity = capacity
        if initialize:
            _HEADER.pack_into(self._buf, 0, 0, 0)

    @staticmethod
    def required_size(capacity: int) -> int:
        """Bytes needed for a buffer of *capacity* records."""
        return _HEADER_SIZE + capacity * RECORD_SIZE

    # -- producer side ---------------------------------------------------
    def push(self, kind: int, activation: int, timestamp_ns: int) -> bool:
        """Append a record; returns False if the buffer is full."""
        head, tail = _HEADER.unpack_from(self._buf, 0)
        if head - tail >= self.capacity:
            return False
        slot = _HEADER_SIZE + (head % self.capacity) * RECORD_SIZE
        _RECORD.pack_into(self._buf, slot, kind, activation, timestamp_ns)
        # Publish: bump head after the slot is fully written.
        struct.pack_into("<Q", self._buf, 0, head + 1)
        return True

    # -- consumer side ---------------------------------------------------
    def pop(self) -> Optional[EventRecord]:
        """Remove and return the oldest record, or None when empty."""
        head, tail = _HEADER.unpack_from(self._buf, 0)
        if tail >= head:
            return None
        slot = _HEADER_SIZE + (tail % self.capacity) * RECORD_SIZE
        kind, activation, timestamp_ns = _RECORD.unpack_from(self._buf, slot)
        struct.pack_into("<Q", self._buf, 8, tail + 1)
        return EventRecord(kind, activation, timestamp_ns)

    def drain(self) -> List[EventRecord]:
        """Pop everything currently buffered."""
        out = []
        while True:
            record = self.pop()
            if record is None:
                return out
            out.append(record)

    def __len__(self) -> int:
        head, tail = _HEADER.unpack_from(self._buf, 0)
        return head - tail

    def release(self) -> None:
        """Release the underlying memoryview.

        Required before closing a shared-memory region the buffer was
        built over (mmap refuses to close while exported views exist).
        """
        self._buf.release()
