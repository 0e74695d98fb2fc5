"""NIC receive path: frames are handed to a ksoftirq-like thread.

In the paper's evaluation "the ksoftirq threads, which handle the
interrupts from the network controller, were executing on a priority just
below the monitor thread".  We reproduce that: a frame arriving at an
ECU's NIC is queued and the ECU's ksoftirq thread -- a normal simulated
thread with a configurable (high) priority -- dequeues it, spends a
per-frame processing cost, and invokes the registered port handler (the
DDS transport).  Receive-side latency therefore includes genuine
scheduling delay whenever higher-priority work occupies all cores.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.sim.cpu import Ecu
from repro.sim.kernel import usec
from repro.sim.sync import Semaphore
from repro.sim.threads import Compute, WaitSem
from repro.network.link import Frame

PortHandler = Callable[[Frame], None]


class NetworkStack:
    """Per-ECU receive-side network processing.

    Parameters
    ----------
    ecu:
        The ECU whose cores process received frames.
    ksoftirq_priority:
        Scheduling priority of the receive thread (the paper places it
        just below the monitor thread's maximum priority).
    per_frame_cost:
        CPU work per received frame, ns (IRQ + protocol processing).
    per_byte_cost:
        Additional CPU work per payload byte, ns (copy cost).
    """

    def __init__(
        self,
        ecu: Ecu,
        ksoftirq_priority: int = 90,
        per_frame_cost: int = usec(15),
        per_byte_cost: float = 0.002,
    ):
        self.ecu = ecu
        self.sim = ecu.sim
        self.per_frame_cost = int(per_frame_cost)
        self.per_byte_cost = float(per_byte_cost)
        self._ports: Dict[str, PortHandler] = {}
        self._rx_queue: Deque[Tuple[str, Frame]] = deque()
        self._rx_sem = Semaphore(self.sim, name=f"{ecu.name}.rx")
        self.frames_processed = 0
        self._thread = ecu.spawn(
            "ksoftirq", self._ksoftirq_body, priority=ksoftirq_priority
        )

    def register_port(self, port: str, handler: PortHandler) -> None:
        """Bind *handler* to *port*; one handler per port."""
        if port in self._ports:
            raise ValueError(f"port {port!r} already registered on {self.ecu.name}")
        self._ports[port] = handler

    def deliver(self, port: str, frame: Frame) -> None:
        """Entry point for links: enqueue *frame* for ksoftirq processing.

        Called in kernel context at the frame's wire-arrival instant.
        """
        self._rx_queue.append((port, frame))
        self._rx_sem.post()

    # ------------------------------------------------------------------
    def _ksoftirq_body(self, _thread):
        wait = WaitSem(self._rx_sem)
        while True:
            got = yield wait
            if not got:  # pragma: no cover - no timeout is ever armed
                continue
            if not self._rx_queue:
                continue
            port, frame = self._rx_queue.popleft()
            cost = self.per_frame_cost + int(self.per_byte_cost * frame.size_bytes)
            if cost > 0:
                yield Compute(cost)
            handler = self._ports.get(port)
            self.frames_processed += 1
            if self.sim.tracing_active:
                self.sim.emit_trace(
                    "netstack.rx",
                    ecu=self.ecu.name,
                    port=port,
                    seq=frame.seq,
                    handled=handler is not None,
                )
            if handler is not None:
                handler(frame)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NetworkStack {self.ecu.name} ports={list(self._ports)}>"
