"""Fig. 11 -- Measured overheads of local segment monitoring.

The paper reports four quantities for its shared-memory monitor, all a
few tens of microseconds on average and below ~100 us worst case on its
testbed:

- *start-event overhead*: posting a start timestamp into the ring
  buffer and raising the semaphore,
- *end-event overhead*: posting an end timestamp (no notification),
- *monitor latency*: from posting a start event until the monitor
  thread has read and processed it (a lower bound on usable segment
  budgets),
- *monitor execution time*: per-wake processing time of the monitor.

Unlike the simulation-based figures, this experiment measures the
**real** :mod:`repro.ipc` implementation on the host with
``perf_counter_ns``/``monotonic_ns`` -- the same methodology as the
paper, modulo Python instead of C++.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis import TukeyStats, summarize
from repro.ipc import IpcMonitor, IpcSegment, SpscRingBuffer


@dataclass
class Fig11Result:
    """Overhead sample series + Tukey stats, and the monitor's verdicts."""

    n_events: int
    start_overheads: List[int]
    end_overheads: List[int]
    monitor_latencies: List[int]
    execution_times: List[int]
    stats: Dict[str, TukeyStats]
    #: Every activation ends right after its start, far inside its
    #: deadline: any temporal exception here is a false one.
    exceptions: int
    stale_end_events: int


def _make_segment(name: str, deadline_ns: int, capacity: int = 4096) -> IpcSegment:
    start_buf = SpscRingBuffer(
        bytearray(SpscRingBuffer.required_size(capacity)), capacity, initialize=True
    )
    end_buf = SpscRingBuffer(
        bytearray(SpscRingBuffer.required_size(capacity)), capacity, initialize=True
    )
    return IpcSegment(name, deadline_ns, start_buf, end_buf)


def run_fig11(n_events: Optional[int] = None, deadline_ms: float = 100.0) -> Fig11Result:
    """Measure the real monitor machinery with host clocks."""
    if n_events is None:
        n_events = 2000
    deadline_ns = int(deadline_ms * 1e6)
    segment = _make_segment("objects", deadline_ns)
    monitor = IpcMonitor([segment])
    start_overheads: List[int] = []
    end_overheads: List[int] = []
    with monitor:
        for i in range(n_events):
            start_overheads.append(segment.post_start(i, monitor.semaphore))
            # Complete the segment promptly (we measure overheads, not
            # exceptions): post the end event and give the monitor an
            # occasional breather so wake-ups interleave realistically.
            end_overheads.append(segment.post_end(i))
            if i % 64 == 0:
                time.sleep(0.0005)
        # Let the monitor drain the final events before stopping.
        time.sleep(0.05)
    stats = {
        "start-event overhead": summarize(start_overheads),
        "end-event overhead": summarize(end_overheads),
        "monitor latency": summarize(monitor.stats.monitor_latencies),
        "monitor execution time": summarize(monitor.stats.execution_times),
    }
    return Fig11Result(
        n_events=n_events,
        start_overheads=start_overheads,
        end_overheads=end_overheads,
        monitor_latencies=list(monitor.stats.monitor_latencies),
        execution_times=list(monitor.stats.execution_times),
        stats=stats,
        exceptions=monitor.stats.exceptions,
        stale_end_events=monitor.stats.stale_end_events,
    )
