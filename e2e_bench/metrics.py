"""Metric names, the trace rows behind them, and the small statistics.

``BENCHMARK.json`` is the one list of metric names, units and bounds;
this module reads it and adds what the manifest's schema has no room
for: which trace row and which divisor make each ``*_ms_per_*`` metric.
"""

from __future__ import annotations

import json
import math
import statistics
from typing import Dict, List, Sequence, Tuple

from e2e_bench import ROOT

MANIFEST_PATH = ROOT / "BENCHMARK.json"

#: metric -> (trace row, divisor): traced self time of the row in ms,
#: per simulated frame / per thousand records applied / per op.
ROW_METRICS: Dict[str, Tuple[str, str]] = {
    "perception.clustering.ms_per_frame": ("perception.clustering", "frame"),
    "perception.ground_filter.ms_per_frame":
        ("perception.ground_filter", "frame"),
    "perception.scenario.ms_per_frame": ("perception.scenario", "frame"),
    "perception.fusion.ms_per_frame": ("perception.fusion", "frame"),
    "perception.stack_build.ms_per_frame":
        ("perception.stack_build", "frame"),
    "sim.self_ms_per_frame": ("sim", "frame"),
    "dds.write_ms_per_frame": ("dds.write", "frame"),
    "dds.receive_ms_per_frame": ("dds.receive", "frame"),
    "network.transmit_ms_per_frame": ("network.transmit", "frame"),
    "ros.enqueue_ms_per_frame": ("ros.enqueue", "frame"),
    "core.chain_runtime.report_ms_per_frame":
        ("core.chain_runtime.report", "frame"),
    "core.monitor.hooks_ms_per_frame": ("core.monitor.hooks", "frame"),
    "faults.oracle_ms_per_scenario": ("faults.oracle", "op"),
    "faults.ground_truth_ms_per_frame": ("faults.ground_truth", "frame"),
    "telemetry.uplink.wal.append_ms_per_krec":
        ("telemetry.uplink.wal.append", "krec"),
    "telemetry.uplink.wal.ack_ms_per_krec":
        ("telemetry.uplink.wal.ack", "krec"),
    "telemetry.uplink.window.tick_ms_per_krec":
        ("telemetry.uplink.window.tick", "krec"),
    "telemetry.uplink.window.on_ack_ms_per_krec":
        ("telemetry.uplink.window.on_ack", "krec"),
    "telemetry.uplink.transport.codec_ms_per_krec":
        ("telemetry.uplink.transport.codec", "krec"),
    "telemetry.uplink.transport.channel_ms_per_krec":
        ("telemetry.uplink.transport.channel", "krec"),
    "telemetry.gateway.handle_ms_per_krec":
        ("telemetry.gateway.handle", "krec"),
    "telemetry.gateway.step_ms_per_krec": ("telemetry.gateway.step", "krec"),
    "telemetry.uplink.ingest.frame_ms_per_krec":
        ("telemetry.uplink.ingest.frame", "krec"),
    "telemetry.uplink.ingest.checkpoint_ms_per_krec":
        ("telemetry.uplink.ingest.checkpoint", "krec"),
    "telemetry.uplink.ingest.recover_ms":
        ("telemetry.uplink.ingest.recover", "op"),
    "telemetry.service.ingest_batch_ms_per_krec":
        ("telemetry.service", "krec"),
}

#: Metrics that are a layer counter's per-op mean over one group of
#: ops, under the counter's own name.
COUNT_METRICS = (
    "network.frames_sent",
    "network.frames_lost",
    "core.exceptions",
    "core.recovered",
    "core.propagated",
    "faults.degradation.transitions",
    "telemetry.uplink.window.frames_sent",
    "telemetry.uplink.window.retransmits",
    "telemetry.uplink.window.window_stalls",
    "telemetry.uplink.transport.delivered",
    "telemetry.uplink.transport.dropped",
    "telemetry.uplink.transport.duplicated",
    "telemetry.gateway.shed_records",
    "telemetry.gateway.rejects",
    "telemetry.uplink.ingest.checkpoints",
    "telemetry.uplink.ingest.duplicates_absorbed",
    "telemetry.store.applied",
)

#: workload -> metric -> bound: what ``compare`` judges beyond the
#: manifest's ``end_to_end``.  The manifest's schema wants every
#: end-to-end metric from every workload and gives ``per_layer`` entries
#: no bound; the monitored/unmonitored A/B exists on one workload.
COMPARE_BOUNDS: Dict[str, Dict[str, float]] = {
    "stack_sparse": {
        "unmonitored_frames_per_s": 0.25,
        "core.monitor.overhead_ms_per_frame": 0.25,
    },
}


def load_manifest() -> dict:
    return json.loads(MANIFEST_PATH.read_text())


def manifest_metrics(section: str) -> Dict[str, str]:
    """``name -> unit`` of one manifest section, in manifest order."""
    return {m["name"]: m["unit"] for m in load_manifest()[section]}


def all_units() -> Dict[str, str]:
    return {**manifest_metrics("end_to_end"), **manifest_metrics("per_layer")}


# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (exact on integers); 0 when empty."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> int:
    """The highest percentile with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) >= 1000:
            return pct
    return 50


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
