"""Discrete-event simulation substrate.

This package is the stand-in for the paper's execution platform (PREEMPT_RT
Linux on multicore ECUs).  It provides:

- :mod:`repro.sim.kernel` -- a deterministic event-driven simulator with an
  integer-nanosecond clock and named, seeded random streams.
- :mod:`repro.sim.threads` -- generator-based simulated threads and the
  syscall objects they yield (``Compute``, ``Sleep``, ``WaitSem``, ...).
- :mod:`repro.sim.scheduler` -- a preemptive fixed-priority multicore
  scheduler with optional thread migration (global vs. partitioned).
- :mod:`repro.sim.sync` -- counting semaphores with timed wait (the
  ``sem_timedwait`` the paper's monitor thread relies on).
- :mod:`repro.sim.timers` -- one-shot and periodic timers.
- :mod:`repro.sim.cpu` -- ECUs, cores and frequency governors (the paper
  explicitly allows thread migration and frequency scaling, which produce
  the heavy latency tails seen in its Fig. 9).
- :mod:`repro.sim.workload` -- execution-time models used by the synthetic
  perception services.

Time is kept in integer nanoseconds throughout to avoid floating-point
accumulation errors; use the helpers :func:`usec`, :func:`msec` and
:func:`sec` to build durations.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.kernel": (
        "Simulator", "ScheduledEvent", "nsec", "usec", "msec", "sec",
        "fmt_time",
    ),
    "repro.sim.threads": (
        "Compute", "Sleep", "WaitSem", "Yield", "SimThread", "ThreadState",
    ),
    "repro.sim.scheduler": ("MulticoreScheduler",),
    "repro.sim.sync": ("Semaphore",),
    "repro.sim.timers": ("Timer", "PeriodicTimer"),
    "repro.sim.cpu": ("Core", "Ecu", "ConstantGovernor", "BurstyGovernor"),
    "repro.sim.workload": ("ExecutionTimeModel", "AffineModel"),
})
