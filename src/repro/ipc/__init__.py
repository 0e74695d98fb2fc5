"""Real (non-simulated) shared-memory monitoring primitives.

The paper's local monitor is built from POSIX shared memory, wait-free
ring buffers and semaphores (``sem_timedwait``); its Fig. 11 measures
the *actual* overheads of that machinery (posting a start/end event,
monitor wake-up latency, monitor execution time).  This package
implements the same machinery for real on this machine:

- :mod:`repro.ipc.shm` -- shared-memory region lifecycle,
- :mod:`repro.ipc.ring_buffer` -- a wait-free SPSC ring buffer of fixed
  event records over any buffer (shared memory or local bytearray),
- :mod:`repro.ipc.semaphore` -- a timed-wait semaphore,
- :mod:`repro.ipc.decision` -- the local monitor's decision core (arm,
  match, expire; the simulated monitor runs it too), clock- and
  thread-free,
- :mod:`repro.ipc.monitor` -- the real monitor thread that drives it.

The Fig. 11 benchmark measures these with ``time.perf_counter_ns`` /
``time.monotonic_ns``; the cross-process example in
``examples/real_ipc_monitor.py`` runs producer processes against the
monitor through actual shared memory.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ipc.shm": ("SharedMemoryRegion",),
    "repro.ipc.ring_buffer": ("EventRecord", "SpscRingBuffer", "RECORD_SIZE"),
    "repro.ipc.semaphore": ("TimedSemaphore",),
    "repro.ipc.monitor": ("IpcMonitor", "IpcSegment", "MonitorStats"),
})
