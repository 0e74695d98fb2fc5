"""A timed-wait semaphore (the ``sem_timedwait`` of the paper).

Wraps ``multiprocessing.Semaphore`` so the same object serves both
thread-based measurements and the cross-process example (children
inherit it through fork).
"""

from __future__ import annotations

import multiprocessing
from typing import Optional


class TimedSemaphore:
    """Counting semaphore with microsecond-granularity timed waits.

    The count starts at zero."""

    def __init__(self):
        self._sem = multiprocessing.Semaphore(0)

    def post(self) -> None:
        """Release the semaphore (wakes one waiter)."""
        self._sem.release()

    def wait(self, timeout_s: Optional[float] = None) -> bool:
        """Acquire; returns False when *timeout_s* elapses first.

        ``timeout_s=None`` blocks indefinitely -- mirroring
        ``sem_wait`` vs ``sem_timedwait``.
        """
        return self._sem.acquire(timeout=timeout_s)
