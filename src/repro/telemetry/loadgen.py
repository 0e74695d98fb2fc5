"""Deterministic multi-vehicle load generator + ingest throughput bench.

The generator synthesizes the record stream a fleet of vehicles would
publish: per frame and vehicle, one SEGMENT record per monitored
segment, one CHAIN verdict per chain, periodic HEARTBEATs -- interleaved
frame-major/vehicle-minor the way an ingest endpoint would see mixed
traffic.  Everything derives from per-vehicle ``np.random.default_rng``
streams seeded from crc32 of the vehicle id (never ``hash``), so the
same config yields the byte-identical stream on every host.

The fleet is deliberately imperfect, so every alert rule has traffic:

- every ``faulty_every``-th vehicle suffers a mid-run fault window with
  inflated latencies and raised miss rates (latency-over-budget,
  (m,k) margin/violation alerts);
- the same vehicles lose a fraction of records in "transport"
  (sequence-gap alerts: the seq number advances, the record never
  arrives);
- the last vehicle of every faulty group falls silent for the final
  third of the run (heartbeat-gap alerts).

:func:`run_load` drives a :class:`~repro.telemetry.service.TelemetryService`
with the stream and measures sustained ingest throughput (records/s,
p95 per-batch latency) -- the number ``python -m repro telemetry``
reports and gates with ``--min-throughput``.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.telemetry.store import StoreConfig

#: ns helpers (kept local: the load generator must not import the sim).
_MS = 1_000_000

#: Fleet constants no caller varies (DESIGN.md "Options").
SEGMENTS_PER_CHAIN = 3
PERIOD_NS = 100 * _MS
BASE_LATENCY_NS = 8 * _MS
#: Per-segment miss probability, baseline and inside a fault window.
MISS_RATE = 0.002
FAULT_MISS_RATE = 0.35
#: Fraction of a faulty vehicle's records lost in transport.
LOSS_RATE = 0.01
#: Vehicles emit a heartbeat every this many frames.
HEARTBEAT_FRAMES = 10


@dataclass
class FleetConfig:
    """Shape of the synthesized fleet."""

    vehicles: int = 8
    frames: int = 400
    chains: Tuple[str, ...] = ("front_objects", "rear_objects")
    seed: int = 2025
    mk: Tuple[int, int] = (2, 10)
    #: Per-segment latency budget (the alert rule input).
    budget_ns: int = 20 * _MS
    jitter_ns: int = 6 * _MS
    #: Every n-th vehicle runs a scripted fault window.
    faulty_every: int = 4

    def __post_init__(self) -> None:
        if self.vehicles < 1:
            raise ValueError("vehicles must be >= 1")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if not self.chains:
            raise ValueError("need at least one chain")

    # ------------------------------------------------------------------
    def vehicle_ids(self) -> List[str]:
        return [f"vehicle-{i:03d}" for i in range(self.vehicles)]

    def segment_names(self, chain: str) -> List[str]:
        return [f"{chain}/s{i}" for i in range(SEGMENTS_PER_CHAIN)]

    def is_faulty(self, vehicle_index: int) -> bool:
        return (
            self.faulty_every > 0
            and vehicle_index % self.faulty_every == self.faulty_every - 1
        )

    def fault_window(self) -> Tuple[int, int]:
        """Frame range of the scripted fault (inclusive, exclusive)."""
        return self.frames // 3, self.frames // 2

    def silent_from(self) -> int:
        """Frame after which the silent vehicle stops emitting."""
        return (2 * self.frames) // 3

    def store_config(self, n_shards: int = 8) -> StoreConfig:
        budgets = {
            name: self.budget_ns
            for chain in self.chains for name in self.segment_names(chain)
        }
        return StoreConfig(
            n_shards=n_shards,
            default_mk=self.mk,
            budget_by_segment=budgets,
        )


class FleetLoadGenerator:
    """Generates the deterministic fleet record stream."""

    def __init__(self, config: Optional[FleetConfig] = None):
        self.config = config or FleetConfig()
        #: Records the "transport" lost (seq advanced, record dropped) --
        #: ground truth for the sequence-gap accounting tests.
        self.lost_in_transport = 0

    def _vehicle_rng(self, vehicle: str) -> "np.random.Generator":
        return np.random.default_rng(
            self.config.seed * 0x9E3779B1 + zlib.crc32(vehicle.encode())
        )

    # ------------------------------------------------------------------
    def batch(self) -> List[tuple]:
        """The stream as wire rows, frame-major / vehicle-minor interleaved.

        Each vehicle stamps its own monotonic ``seq``; a row lost in
        transport consumed its seq but is not among the rows.
        """
        cfg = self.config
        self.lost_in_transport = 0
        rows: List[tuple] = []
        vehicles = cfg.vehicle_ids()
        next_seq = [0] * len(vehicles)
        fault_first, fault_last = cfg.fault_window()
        silent_from = cfg.silent_from()
        segment_names = {
            chain: cfg.segment_names(chain) for chain in cfg.chains
        }
        segments = len(cfg.chains) * SEGMENTS_PER_CHAIN
        faulty_by_index = [cfg.is_faulty(i) for i in range(len(vehicles))]
        # Each vehicle's whole run of draws as one vector: per active
        # frame and segment a miss draw, a jitter draw and, on a faulty
        # vehicle, a loss draw -- the doubles, in the order, that one
        # ``rng.random()`` per draw would return.
        draws = []
        for index, vehicle in enumerate(vehicles):
            faulty = faulty_by_index[index]
            # The last faulty vehicle goes silent for the tail.
            active = (
                silent_from if faulty and index == len(vehicles) - 1
                else cfg.frames
            )
            k = active * segments * (3 if faulty else 2)
            vector = self._vehicle_rng(vehicle).random(k).tolist()
            draws.append(iter(vector).__next__)

        for frame in range(cfg.frames):
            for index, vehicle in enumerate(vehicles):
                faulty = faulty_by_index[index]
                silent = (
                    faulty and index == len(vehicles) - 1
                    and frame >= silent_from
                )
                if silent:
                    continue
                draw = draws[index]
                seq = next_seq[index]
                in_fault = faulty and fault_first <= frame < fault_last
                base_ts = frame * PERIOD_NS + index * 111_111
                if frame % HEARTBEAT_FRAMES == 0:
                    rows.append((
                        "heartbeat", vehicle, "", "", -1, None, "",
                        "", base_ts, seq,
                    ))
                    seq += 1
                for chain in cfg.chains:
                    chain_missed = False
                    for segment in segment_names[chain]:
                        miss_rate = FAULT_MISS_RATE if in_fault else MISS_RATE
                        missed = draw() < miss_rate
                        latency = BASE_LATENCY_NS + int(
                            draw() * cfg.jitter_ns
                        )
                        if in_fault:
                            latency += cfg.budget_ns  # over budget for sure
                        if missed:
                            latency += 2 * cfg.budget_ns
                            chain_missed = True
                        if faulty and draw() < LOSS_RATE:
                            # Transport loss: the seq was consumed but
                            # the row never reaches the service.
                            self.lost_in_transport += 1
                        else:
                            rows.append((
                                "segment", vehicle, chain, segment,
                                frame, latency, "miss" if missed else "ok",
                                "", base_ts + latency, seq,
                            ))
                        seq += 1
                    rows.append((
                        "chain", vehicle, chain, "", frame, None,
                        "miss" if chain_missed else "ok", "",
                        base_ts + PERIOD_NS, seq,
                    ))
                    seq += 1
                next_seq[index] = seq
        return rows

    def materialize(self) -> List[tuple]:
        """:meth:`batch` under the name ``e2e_bench/trace.py`` wraps; no
        production path calls it."""
        return self.batch()


# ----------------------------------------------------------------------
# Throughput measurement
# ----------------------------------------------------------------------
@dataclass
class LoadReport:
    """Outcome of one :func:`run_load` drive."""

    records: int
    duration_ns: int
    records_per_s: float
    batch_p95_ns: int
    applied: int
    dropped: int
    lost_in_transport: int
    accounting_ok: bool
    alerts_by_rule: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"records ingested : {self.records}",
            f"wall time        : {self.duration_ns / 1e6:.1f} ms",
            f"throughput       : {self.records_per_s:,.0f} records/s",
            f"batch p95        : {self.batch_p95_ns / 1e6:.3f} ms",
            f"applied          : {self.applied}",
            f"dropped (counted): {self.dropped}",
            f"lost in transport: {self.lost_in_transport} (before ingest)",
            f"accounting       : {'OK' if self.accounting_ok else 'VIOLATED'}",
            "alerts           : "
            + (", ".join(
                f"{rule}={count}"
                for rule, count in sorted(self.alerts_by_rule.items())
            ) or "none"),
        ]
        return "\n".join(lines)


def run_load(
    service,
    generator: Optional[FleetLoadGenerator] = None,
    batch_size: int = 2048,
) -> LoadReport:
    """Drive *service* with the generator's stream; measure throughput.

    The rows are handed to ``service.ingest_batch`` in *batch_size*
    slices, so the measured time covers the full ingest -> store ->
    alert path.  One final poll runs the time-based rules at the data
    watermark.  The report's accounting holds only if the service was
    offered every generated record and lost none of them silently.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    generator = generator or FleetLoadGenerator()
    rows = generator.batch()
    n = len(rows)
    batch_times: List[int] = []
    t_start = time.perf_counter_ns()
    for start in range(0, n, batch_size):
        t0 = time.perf_counter_ns()
        service.ingest_batch(rows[start:start + batch_size])
        batch_times.append(time.perf_counter_ns() - t0)
    duration_ns = max(1, time.perf_counter_ns() - t_start)
    service.poll()
    batch_times.sort()
    p95_index = min(
        len(batch_times) - 1, int(round(0.95 * (len(batch_times) - 1)))
    ) if batch_times else 0
    stats = service.stats()
    return LoadReport(
        records=n,
        duration_ns=duration_ns,
        records_per_s=n / (duration_ns / 1e9),
        batch_p95_ns=batch_times[p95_index] if batch_times else 0,
        applied=stats["applied"],
        dropped=stats["dropped"],
        lost_in_transport=generator.lost_in_transport,
        accounting_ok=stats["accounting_ok"] and stats["offered"] == n,
        alerts_by_rule=stats["alerts_by_rule"],
    )
