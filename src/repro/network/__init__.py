"""Inter-ECU communication substrate.

Models the Ethernet fabric between ECUs and the PTP (IEEE 1588) time
synchronization the paper's synchronization-based remote monitoring
relies on:

- :mod:`repro.network.link` -- point-to-point links with base latency,
  jitter, bandwidth-dependent serialization and loss; deliveries are
  in-order per link (the paper assumes in-order middleware delivery).
- :mod:`repro.network.ptp` -- drifting per-ECU clocks with periodic sync
  rounds bounding the offset error to the paper's epsilon.
- :mod:`repro.network.stack` -- the receive path: frames arrive at a NIC
  and are processed by a ksoftirq-like thread whose scheduling priority
  sits just below the monitor thread, exactly as configured in the
  paper's evaluation.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.network.link": ("Frame", "JitterModel", "Link", "LinkStats"),
    "repro.network.ptp": ("DriftingClock", "PtpService"),
    "repro.network.stack": ("NetworkStack",),
    "repro.network.switch": ("BackgroundTraffic", "EthernetSwitch"),
})
