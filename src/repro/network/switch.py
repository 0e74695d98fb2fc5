"""A store-and-forward switch with output-port queueing.

The point-to-point :class:`~repro.network.link.Link` draws its jitter
from a distribution; this switch makes the jitter *emergent*: frames
from several flows share an output port, queue behind each other, and
experience load-dependent delay -- the response-time jitter ``J_R`` the
paper's remote-deadline formula must absorb.  A background-traffic
generator loads ports with cross traffic.

Topology: ECUs attach to numbered ports; a frame entering the switch is
forwarded to its destination's port queue, serialized at the port rate,
then handed to the destination's delivery callback after the egress
propagation delay.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.network.link import Frame
from repro.sim.kernel import Simulator, usec


class _OutputPort:
    """One egress port: FIFO queue + serializer."""

    def __init__(self, switch: "EthernetSwitch", name: str):
        self.switch = switch
        self.name = name
        self.queue: Deque[Tuple[Frame, Callable[[Frame], None]]] = deque()
        self.busy = False
        self.deliver_default: Optional[Callable[[Frame], None]] = None
        # Statistics.
        self.forwarded = 0
        self.dropped = 0
        self.peak_queue = 0
        self.total_queueing_ns = 0
        self._enqueue_times: Deque[int] = deque()

    def enqueue(self, frame: Frame, deliver: Callable[[Frame], None]) -> bool:
        if len(self.queue) >= self.switch.queue_capacity:
            self.dropped += 1
            return False
        self.queue.append((frame, deliver))
        self._enqueue_times.append(self.switch.sim.now)
        if len(self.queue) > self.peak_queue:
            self.peak_queue = len(self.queue)
        if not self.busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        frame, deliver = self.queue[0]
        tx_time = int(frame.size_bytes * 8 / self.switch.port_rate_bps * 1e9)
        self.switch.sim.schedule_after(
            max(1, tx_time), self._finish, frame, deliver,
            label=f"switch:{self.name}:tx",
        )

    def _finish(self, frame: Frame, deliver: Callable[[Frame], None]) -> None:
        self.queue.popleft()
        entered = self._enqueue_times.popleft()
        self.total_queueing_ns += self.switch.sim.now - entered
        self.forwarded += 1
        self.switch.sim.schedule_after(
            self.switch.propagation_delay, deliver, frame,
            label=f"switch:{self.name}:deliver",
        )
        self._start_next()


class EthernetSwitch:
    """A shared switch interconnecting ECU ports.

    Parameters
    ----------
    sim:
        Simulation kernel.
    port_rate_bps:
        Serialization rate of each egress port (100 Mbit/s automotive
        Ethernet by default -- low enough that big point clouds load
        the port noticeably).
    propagation_delay:
        Cable + PHY latency after serialization.
    queue_capacity:
        Frames an egress queue holds before tail-dropping.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "switch",
        port_rate_bps: float = 100e6,
        propagation_delay: int = usec(5),
        queue_capacity: int = 64,
    ):
        if port_rate_bps <= 0:
            raise ValueError("port rate must be positive")
        self.sim = sim
        self.name = name
        self.port_rate_bps = float(port_rate_bps)
        self.propagation_delay = int(propagation_delay)
        self.queue_capacity = int(queue_capacity)
        self._ports: Dict[str, _OutputPort] = {}

    def attach(self, node_name: str) -> None:
        """Create the egress port towards *node_name*."""
        if node_name in self._ports:
            raise ValueError(f"port to {node_name!r} already exists")
        self._ports[node_name] = _OutputPort(self, node_name)

    def port(self, node_name: str) -> _OutputPort:
        """The egress port towards *node_name* (statistics access)."""
        return self._ports[node_name]

    def forward(
        self, frame: Frame, deliver: Callable[[Frame], None]
    ) -> bool:
        """Send *frame* towards ``frame.dst``; False if tail-dropped."""
        port = self._ports.get(frame.dst)
        if port is None:
            raise KeyError(f"no port towards {frame.dst!r}")
        return port.enqueue(frame, deliver)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<EthernetSwitch {self.name} ports={sorted(self._ports)}>"


class BackgroundTraffic:
    """Cross traffic loading one egress port.

    Emits ``FRAME_BYTES`` frames towards *dst* with exponentially
    distributed gaps (the ``"bgtraffic"`` stream) targeting the given
    utilization of the port rate.
    """

    FRAME_BYTES = 1500

    def __init__(
        self,
        switch: EthernetSwitch,
        dst: str,
        utilization: float = 0.5,
    ):
        if not (0.0 < utilization < 1.0):
            raise ValueError("utilization must be in (0, 1)")
        self.switch = switch
        self.dst = dst
        tx_time = self.FRAME_BYTES * 8 / switch.port_rate_bps * 1e9
        self.mean_gap = tx_time / utilization
        self.sent = 0
        self._running = False

    def start(self) -> None:
        """Begin emitting cross traffic."""
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop emitting."""
        self._running = False

    def _schedule_next(self) -> None:
        if not self._running:
            return
        rng = self.switch.sim.rng("bgtraffic")
        gap = max(1, int(rng.exponential(self.mean_gap)))
        self.switch.sim.schedule_after(gap, self._emit, label="bgtraffic")

    def _emit(self) -> None:
        if not self._running:
            return
        frame = Frame(
            payload=None, size_bytes=self.FRAME_BYTES,
            src="bg", dst=self.dst,
        )
        self.switch.forward(frame, lambda f: None)
        self.sent += 1
        self._schedule_next()
