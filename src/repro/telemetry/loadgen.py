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
p95 per-batch latency) -- the number the acceptance criterion and the
``ingest_batched`` benchmark report.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.telemetry.emitter import TelemetryEmitter
from repro.telemetry.records import TelemetryRecord
from repro.telemetry.store import StoreConfig

#: ns helpers (kept local: the load generator must not import the sim).
_MS = 1_000_000


@dataclass
class FleetConfig:
    """Shape of the synthesized fleet."""

    vehicles: int = 8
    frames: int = 400
    chains: Tuple[str, ...] = ("front_objects", "rear_objects")
    segments_per_chain: int = 3
    period_ns: int = 100 * _MS
    seed: int = 2025
    mk: Tuple[int, int] = (2, 10)
    #: Per-segment latency budget (the alert rule input).
    budget_ns: int = 20 * _MS
    base_latency_ns: int = 8 * _MS
    jitter_ns: int = 6 * _MS
    #: Baseline per-segment miss probability.
    miss_rate: float = 0.002
    #: Every n-th vehicle runs a scripted fault window.
    faulty_every: int = 4
    #: Miss probability inside a fault window.
    fault_miss_rate: float = 0.35
    #: Fraction of a faulty vehicle's records lost in transport.
    loss_rate: float = 0.01
    #: Vehicles emit a heartbeat every this many frames.
    heartbeat_frames: int = 10

    def __post_init__(self) -> None:
        if self.vehicles < 1:
            raise ValueError("vehicles must be >= 1")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.segments_per_chain < 1:
            raise ValueError("segments_per_chain must be >= 1")
        if not self.chains:
            raise ValueError("need at least one chain")

    # ------------------------------------------------------------------
    def vehicle_ids(self) -> List[str]:
        return [f"vehicle-{i:03d}" for i in range(self.vehicles)]

    def segment_names(self, chain: str) -> List[str]:
        return [f"{chain}/s{i}" for i in range(self.segments_per_chain)]

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
    def records(self) -> Iterator[TelemetryRecord]:
        """The stream, frame-major / vehicle-minor interleaved."""
        cfg = self.config
        self.lost_in_transport = 0
        out: List[TelemetryRecord] = []
        emitters: Dict[str, TelemetryEmitter] = {}
        rngs: Dict[str, "np.random.Generator"] = {}
        for vehicle in cfg.vehicle_ids():
            emitters[vehicle] = TelemetryEmitter(vehicle, out.append)
            rngs[vehicle] = self._vehicle_rng(vehicle)
        fault_first, fault_last = cfg.fault_window()
        silent_from = cfg.silent_from()
        vehicles = cfg.vehicle_ids()

        for frame in range(cfg.frames):
            for index, vehicle in enumerate(vehicles):
                faulty = cfg.is_faulty(index)
                # The last faulty vehicle goes silent for the tail.
                silent = (
                    faulty and index == len(vehicles) - 1
                    and frame >= silent_from
                )
                if silent:
                    continue
                emitter = emitters[vehicle]
                rng = rngs[vehicle]
                in_fault = faulty and fault_first <= frame < fault_last
                base_ts = frame * cfg.period_ns + index * 111_111
                if cfg.heartbeat_frames and frame % cfg.heartbeat_frames == 0:
                    emitter.heartbeat(base_ts)
                for chain in cfg.chains:
                    chain_missed = False
                    for segment in cfg.segment_names(chain):
                        miss_rate = cfg.fault_miss_rate if in_fault else cfg.miss_rate
                        missed = rng.random() < miss_rate
                        latency = cfg.base_latency_ns + int(
                            rng.random() * cfg.jitter_ns
                        )
                        if in_fault:
                            latency += cfg.budget_ns  # over budget for sure
                        if missed:
                            latency += 2 * cfg.budget_ns
                            chain_missed = True
                        verdict = "miss" if missed else "ok"
                        before = len(out)
                        emitter.segment(
                            chain, segment, frame, verdict, latency,
                            base_ts + latency,
                        )
                        if (faulty and rng.random() < cfg.loss_rate):
                            # Transport loss: the seq was consumed but
                            # the record never reaches the service.
                            del out[before:]
                            self.lost_in_transport += 1
                    emitter.chain(
                        chain, frame, chain_missed,
                        base_ts + cfg.period_ns,
                    )
        return iter(out)

    def materialize(self) -> List[TelemetryRecord]:
        """The full stream as a list (bench/CLI convenience)."""
        return list(self.records())


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
    pending: int
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
            f"pending          : {self.pending}",
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

    Records are offered in batches; after each batch the queue is
    pumped, so the measured time covers the full ingest -> store ->
    alert path.  One final poll runs the time-based rules at the data
    watermark.
    """
    generator = generator or FleetLoadGenerator()
    records = generator.materialize()
    batch_times: List[int] = []
    t_start = time.perf_counter_ns()
    for start in range(0, len(records), batch_size):
        t0 = time.perf_counter_ns()
        for record in records[start:start + batch_size]:
            service.ingest(record)
        service.pump()
        batch_times.append(time.perf_counter_ns() - t0)
    service.pump()
    duration_ns = max(1, time.perf_counter_ns() - t_start)
    service.poll()
    batch_times.sort()
    p95_index = min(
        len(batch_times) - 1, int(round(0.95 * (len(batch_times) - 1)))
    ) if batch_times else 0
    stats = service.stats()
    return LoadReport(
        records=len(records),
        duration_ns=duration_ns,
        records_per_s=len(records) / (duration_ns / 1e9),
        batch_p95_ns=batch_times[p95_index] if batch_times else 0,
        applied=stats["applied"],
        dropped=stats["dropped"],
        pending=stats["pending"],
        lost_in_transport=generator.lost_in_transport,
        accounting_ok=stats["accounting_ok"],
        alerts_by_rule=stats["alerts_by_rule"],
    )
