"""A DDS-like publish/subscribe middleware over the simulated platform.

This is the stand-in for eProsima Fast-RTPS underneath ROS2:

- :mod:`repro.dds.qos` -- QoS policies.  DEADLINE is the *inter-arrival
  monitoring* the paper uses as its baseline (Sec. III/IV: "a basic
  concept in DDS"); RELIABILITY adds retransmission over lossy links;
  LIFESPAN expires stale samples.
- :mod:`repro.dds.topic` -- topics, samples (carrying the *source
  timestamp* that synchronization-based monitoring interprets), keys.
- :mod:`repro.dds.participant` -- per-process domain participants with a
  middleware event thread: deadline timers and retransmissions execute
  at middleware priority, which is what the paper's Fig. 12 measures.
- :mod:`repro.dds.writer` / :mod:`repro.dds.reader` -- endpoints with
  publication/receive instrumentation hooks (the paper's communication
  events) for monitors and tracers to attach to.
- :mod:`repro.dds.domain` -- endpoint matching and transport wiring
  (same-ECU loopback vs. inter-ECU links + ksoftirq receive path).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dds.qos": ("HistoryKind", "QosProfile", "ReliabilityKind"),
    "repro.dds.topic": ("Sample", "Topic"),
    "repro.dds.participant": ("DomainParticipant",),
    "repro.dds.writer": ("DataWriter",),
    "repro.dds.reader": ("DataReader", "ReaderListener"),
    "repro.dds.domain": ("DdsDomain",),
})
