"""Shared-memory region lifecycle management."""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Optional


class SharedMemoryRegion:
    """A named shared-memory block usable across processes.

    The creating side calls ``SharedMemoryRegion(name, size, create=True)``
    and eventually :meth:`unlink`; attachers use ``create=False``.
    Supports the context-manager protocol (closes, and unlinks if owner).
    """

    def __init__(self, name: Optional[str], size: int = 0, create: bool = False):
        if create and size <= 0:
            raise ValueError("creating a region requires a positive size")
        self._owner = create
        if create:
            self._shm = shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        else:
            if name is None:
                raise ValueError("attaching requires a name")
            self._shm = shared_memory.SharedMemory(name=name, create=False)

    @property
    def name(self) -> str:
        """The region's system-wide name."""
        return self._shm.name

    @property
    def buf(self) -> memoryview:
        """The raw memory."""
        return self._shm.buf

    def close(self) -> None:
        """Detach from the region (does not destroy it)."""
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the region (owner side, after all closes)."""
        self._shm.unlink()

    def __enter__(self) -> "SharedMemoryRegion":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        if self._owner:
            try:
                self.unlink()
            except FileNotFoundError:  # already unlinked
                pass
