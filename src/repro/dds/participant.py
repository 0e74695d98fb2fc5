"""Domain participants and the middleware event thread.

Each participant (one per process, as in ROS2) owns a *middleware event
thread* that executes deadline-QoS timeout routines and retransmission
bookkeeping.  Its priority is deliberately *not* the highest on the ECU:
the paper observes that running middleware timers at top priority "would
not be practical anyway, as the entire network load would interfere with
all regular services" -- and measures (Fig. 12) the resulting 100 us to
2 ms exception-entry latencies.  Monitors that want bounded reaction
times must instead forward timeouts to the high-priority monitor thread
(Sec. V-B), which our remote monitor supports as a configuration.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple, TYPE_CHECKING

from repro.sim.cpu import Ecu
from repro.sim.kernel import usec
from repro.sim.sync import Semaphore
from repro.sim.threads import Compute, WaitSem

if TYPE_CHECKING:  # pragma: no cover
    from repro.dds.domain import DdsDomain
    from repro.dds.qos import QosProfile
    from repro.dds.reader import DataReader, ReaderListener
    from repro.dds.topic import Topic
    from repro.dds.writer import DataWriter

class DomainParticipant:
    """A process-level attachment point to the DDS domain.

    Parameters
    ----------
    domain:
        The :class:`~repro.dds.domain.DdsDomain` this participant joins.
    ecu:
        The ECU hosting the process.
    name:
        Process name (e.g. ``"fusion"``).
    middleware_priority:
        Scheduling priority of the middleware event thread.
    event_entry_cost:
        CPU work (ns) to enter an event routine once scheduled.
    """

    def __init__(
        self,
        domain: "DdsDomain",
        ecu: Ecu,
        name: str,
        middleware_priority: int = 30,
        event_entry_cost: int = usec(3),
    ):
        self.domain = domain
        self.ecu = ecu
        self.sim = ecu.sim
        self.name = name
        self.guid = f"{ecu.name}/{name}#{self.sim.next_entity_id('participant')}"
        self.event_entry_cost = int(event_entry_cost)
        self._event_queue: Deque[Tuple[Callable[..., None], tuple]] = deque()
        self._event_sem = Semaphore(self.sim, name=f"{self.guid}.evt")
        self.middleware_events_served = 0
        self._event_thread = ecu.spawn(
            f"{name}.dds-evt", self._event_thread_body, priority=middleware_priority
        )

    # ------------------------------------------------------------------
    # Middleware event service
    # ------------------------------------------------------------------
    def post_middleware_event(self, fn: Callable[..., None], *args: Any) -> None:
        """Queue *fn(\\*args)* for execution on the middleware event thread.

        The latency from this call to the execution of *fn* includes real
        scheduling delay -- the quantity the paper's Fig. 12 measures.
        """
        self._event_queue.append((fn, args))
        self._event_sem.post()

    def _event_thread_body(self, _thread):
        wait = WaitSem(self._event_sem)
        while True:
            yield wait
            if not self._event_queue:
                continue
            fn, args = self._event_queue.popleft()
            if self.event_entry_cost > 0:
                yield Compute(self.event_entry_cost)
            self.middleware_events_served += 1
            fn(*args)

    # ------------------------------------------------------------------
    # Endpoint factories
    # ------------------------------------------------------------------
    def create_writer(
        self,
        topic: "Topic",
        qos: Optional["QosProfile"] = None,
        writer_id: Optional[str] = None,
    ) -> "DataWriter":
        """Create a :class:`DataWriter` for *topic* on this participant."""
        from repro.dds.writer import DataWriter

        writer = DataWriter(self, topic, qos, writer_id=writer_id)
        self.domain._register_writer(writer)
        return writer

    def create_reader(
        self,
        topic: "Topic",
        qos: Optional["QosProfile"] = None,
        listener: Optional["ReaderListener"] = None,
    ) -> "DataReader":
        """Create a :class:`DataReader` for *topic* on this participant."""
        from repro.dds.reader import DataReader

        reader = DataReader(self, topic, qos, listener)
        self.domain._register_reader(reader)
        return reader

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DomainParticipant {self.guid}>"
