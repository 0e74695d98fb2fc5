"""Deterministic chaos harness for the store-and-forward uplink.

One scenario = one fault plan per channel direction + a crash schedule.
:class:`ChaosDriver` is the one episode driver of the three fleet
sweeps (``repro chaos``, its gateway leg, ``repro adapt``): it owns
virtual time (a bare step counter), the adversarial channel pair, the
vehicle list and the crash schedule, and kills / recovers either
endpoint exactly on schedule.  What a *vehicle* emits and what the
*server* does with a frame are role hooks (``_make_vehicles``,
``_vehicle_step``, ``_server_receive``, ... ``_verify``); the gateway
and adapt drivers override those and nothing else.  Because every
random draw comes from a seeded stream and no wall clock is read, a
scenario replays byte-identically -- a failing schedule is a repro, not
a flake.

The driver is the *omniscient ledger*: component counters die with the
process they live in, so ground truth is kept here, as per-vehicle seq
sets fed by the spool's ``on_evict`` and the client's ``on_acked`` /
``on_shed`` hooks, which hand it seqs.  The vehicles spool the load
generator's wire rows and the fault-free reference folds the same rows.
At the end of every uplink scenario it asserts:

- **ledger law** -- ``offered == acked + spooled + evicted + shed`` as
  a *disjoint set union* per vehicle (no record lost, none
  double-lived; only a gateway ever sheds);
- **digest convergence** -- the fleet store's content digest equals a
  fault-free reference fed the same stream directly (fault classes
  that lose nothing), which also proves no (m,k) miss was
  double-counted or lost, since miss counters are part of the digest;
- **recovery equivalence** -- an ingestor recovered cold from disk
  (checkpoint + WAL replay) produces the same digest as the live one,
  in *every* scenario;
- **counted eviction** -- scenarios that force the disk budget must
  see ``evicted > 0`` (and still balance the ledger).

Run it: ``python -m repro chaos`` (add ``--quick`` in CI).
"""

from __future__ import annotations

import json
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.telemetry.loadgen import FleetConfig, FleetLoadGenerator
from repro.telemetry.records import SEQ, SOURCE
from repro.telemetry.service import ServiceConfig, TelemetryService
from repro.telemetry.uplink.ingest import (
    UplinkIngestor,
    apply_rows,
    store_digest,
)
from repro.telemetry.uplink.transport import (
    AdversarialChannel,
    ChannelFaultPlan,
    decode_envelope,
)
from repro.telemetry.uplink.wal import WalConfig, WalSpooler
from repro.telemetry.uplink.window import (
    WindowedClientConfig,
    WindowedUplinkClient,
)

#: The one uplink protocol.  ``ChaosConfig.protocol`` and the report
#: header's ``"protocol"`` survive only because ``e2e_bench`` passes
#: and pins them; anything but this value raises.
PROTOCOL = "windowed"

#: Records each live vehicle spools per step, and the vehicles' WAL
#: segment size (DESIGN.md "Options": no caller varies either).
EMIT_PER_STEP = 8
SEGMENT_MAX_RECORDS = 32

#: Client counters folded into the per-scenario protocol section
#: (cumulative only -- gauges like ``in_flight`` stay out).
_CLIENT_COUNTER_KEYS = frozenset({
    "frames_sent", "retransmits", "fast_retransmits", "dup_acks",
    "window_stalls", "probes", "floor_probes", "shed_records", "hellos",
    "rate_rejects", "hello_rejects",
    "records_sent", "timeouts", "acks", "stale_acks", "circuit_opens",
})

# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass
class ChaosConfig:
    """Fleet shape and driver knobs shared by every scenario."""

    vehicles: int = 3
    frames: int = 40
    seed: int = 2025
    #: Hard cap on driver steps (a scenario that does not converge by
    #: then fails its ``converged`` check).
    max_steps: int = 5000
    #: WAL fsync policy.  Chaos kills *processes*, not power, so
    #: ``never`` keeps sweeps fast without weakening what is tested.
    fsync: str = "never"
    checkpoint_every: Optional[int] = 4
    #: Always ``"windowed"`` (see :data:`PROTOCOL`).
    protocol: str = PROTOCOL
    #: Fault cadence of the *emitted* stream (0: clean -- chaos usually
    #: injects its own faults in transport; gateway overload scenarios
    #: raise it to get an alert/telemetry/dashboard class mix).
    faulty_every: int = 0

    def __post_init__(self) -> None:
        if self.vehicles < 1:
            raise ValueError("vehicles must be >= 1")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.protocol != PROTOCOL:
            raise ValueError(
                f"protocol must be {PROTOCOL!r}, got {self.protocol!r}"
            )

    def fleet_config(self) -> FleetConfig:
        return FleetConfig(
            vehicles=self.vehicles, frames=self.frames, seed=self.seed,
            faulty_every=self.faulty_every,
        )

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(
            queue_capacity=1 << 16,
            store=self.fleet_config().store_config(),
        )


def client_config(
    seed: int, token: Optional[str] = None
) -> WindowedClientConfig:
    """The windowed-client policy every sweep's vehicles run."""
    return WindowedClientConfig(
        frame_records=16, window_frames=8, ack_timeout=6,
        backoff_base=2, backoff_max=32, failure_threshold=4,
        cooldown=10, dup_ack_threshold=3, seed=seed, token=token,
    )


@dataclass(frozen=True)
class CrashEvent:
    """Kill one endpoint at ``step``; recover it ``down_for`` later."""

    step: int
    side: str  # "vehicle" | "server"
    vehicle: int = 0  # vehicle index (vehicle side only)
    down_for: int = 8
    torn_tail: bool = False

    def __post_init__(self) -> None:
        if self.side not in ("vehicle", "server"):
            raise ValueError(f"side must be vehicle|server, got {self.side!r}")
        if self.step < 0 or self.down_for < 1:
            raise ValueError("need step >= 0 and down_for >= 1")


@dataclass
class EpisodeScenario:
    """What every sweep's scenario is made of: a name, one fault plan
    per channel direction and a crash schedule."""

    name: str
    description: str = ""
    up: ChannelFaultPlan = field(default_factory=ChannelFaultPlan)
    down: ChannelFaultPlan = field(default_factory=ChannelFaultPlan)
    crashes: Tuple[CrashEvent, ...] = ()


@dataclass
class ChaosScenario(EpisodeScenario):
    """One named fault x crash schedule of the uplink sweep."""

    #: Vehicle WAL disk budget (None: unbounded).
    wal_max_bytes: Optional[int] = None
    #: Compare the fleet store digest against the fault-free reference
    #: (off only for scenarios that *lose* records by design).
    check_digest: bool = True
    expect_evictions: bool = False

    def make_driver(
        self, config: "ChaosConfig", workdir: Path
    ) -> "ChaosDriver":
        """Driver factory -- gateway scenarios override this."""
        return ChaosDriver(self, config, workdir)


def default_scenarios() -> List[ChaosScenario]:
    """The sweep ``python -m repro chaos`` runs: every fault class,
    three crash points per side, a kitchen-sink mix, and a forced
    disk-budget eviction."""
    return [
        ChaosScenario(
            name="baseline",
            description="clean channels, no crashes (harness sanity)",
        ),
        ChaosScenario(
            name="drop",
            description="15% datagram loss in both directions",
            up=ChannelFaultPlan(drop_prob=0.15),
            down=ChannelFaultPlan(drop_prob=0.15),
        ),
        ChaosScenario(
            name="duplicate",
            description="25% duplication both ways (dedup must absorb)",
            up=ChannelFaultPlan(dup_prob=0.25),
            down=ChannelFaultPlan(dup_prob=0.25),
        ),
        ChaosScenario(
            name="reorder",
            description="heavy reordering + jitter both ways",
            up=ChannelFaultPlan(reorder_prob=0.3, reorder_extra=7,
                                jitter_steps=2),
            down=ChannelFaultPlan(reorder_prob=0.2, jitter_steps=2),
        ),
        ChaosScenario(
            name="corrupt",
            description="bit flips; CRC framing must reject, retry heals",
            up=ChannelFaultPlan(corrupt_prob=0.2),
            down=ChannelFaultPlan(corrupt_prob=0.1),
        ),
        ChaosScenario(
            name="partition",
            description="full two-way partition for 20 steps",
            up=ChannelFaultPlan(partitions=((12, 32),)),
            down=ChannelFaultPlan(partitions=((12, 32),)),
        ),
        ChaosScenario(
            name="vehicle_crash",
            description="vehicle killed at 3 points; one torn WAL tail",
            crashes=(
                CrashEvent(step=6, side="vehicle", vehicle=0),
                CrashEvent(step=18, side="vehicle", vehicle=1,
                           torn_tail=True),
                CrashEvent(step=30, side="vehicle", vehicle=0),
            ),
        ),
        ChaosScenario(
            name="server_crash",
            description="fleet ingestor killed at 3 points",
            crashes=(
                CrashEvent(step=6, side="server"),
                CrashEvent(step=20, side="server"),
                CrashEvent(step=34, side="server"),
            ),
        ),
        ChaosScenario(
            name="chaos_mixed",
            description="drop+dup+reorder+corrupt + partition + crashes",
            up=ChannelFaultPlan(drop_prob=0.08, dup_prob=0.08,
                                reorder_prob=0.1, corrupt_prob=0.05,
                                partitions=((24, 34),)),
            down=ChannelFaultPlan(drop_prob=0.08, dup_prob=0.08,
                                  corrupt_prob=0.05),
            crashes=(
                CrashEvent(step=10, side="vehicle", vehicle=0,
                           torn_tail=True),
                CrashEvent(step=16, side="server"),
            ),
        ),
        ChaosScenario(
            name="eviction",
            description="uplink partitioned while the WAL budget fills:"
                        " oldest records evicted, counted, ledger holds",
            up=ChannelFaultPlan(partitions=((0, 60),)),
            wal_max_bytes=4096,
            check_digest=False,
            expect_evictions=True,
        ),
    ]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class EpisodeResult:
    """Outcome of one scenario run (JSON-friendly); each sweep's result
    class adds its own report sections as further fields."""

    name: str
    ok: bool = True
    converged_at: Optional[int] = None
    checks: List[dict] = field(default_factory=list)
    channels: dict = field(default_factory=dict)
    recoveries: dict = field(default_factory=dict)

    #: Column width of the scenario name in ``render`` and ``--list``.
    name_width = 14

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.ok = False

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def render(self) -> str:
        flags = " ".join(
            f"{c['name']}={'OK' if c['ok'] else 'FAIL'}" for c in self.checks
        )
        status = "PASS" if self.ok else "FAIL"
        at = self.converged_at if self.converged_at is not None else "-"
        return (
            f"{status:4s} {self.name:<{self.name_width}s} "
            f"converged@{at!s:<6} {flags}"
        )


@dataclass
class ScenarioResult(EpisodeResult):
    """Outcome of one uplink or gateway scenario."""

    ledger: dict = field(default_factory=dict)
    ingest: dict = field(default_factory=dict)
    #: Cumulative protocol counters (retransmits, dup-acks, window
    #: stalls, shed-by-class, ...) summed across vehicle lives.
    protocol: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Driver internals
# ----------------------------------------------------------------------
class _Vehicle:
    """One vehicle endpoint: stream cursor + spool + client + ledger."""

    def __init__(
        self,
        source: str,
        rows: List[tuple],
        wal_config: WalConfig,
        client_config: WindowedClientConfig,
        send,
    ):
        self.source = source
        #: The wire rows this vehicle emits, in seq order.
        self.rows = rows
        self.wal_config = wal_config
        self.client_config = client_config
        self._send = send
        self.cursor = 0
        self.alive = True
        self.recoveries = 0
        self.truncated_lines = 0
        self.mark_truncated_lines = 0
        # Ground-truth ledger sets (survive endpoint crashes).
        self.offered: Set[int] = set()
        self.acked: Set[int] = set()
        self.evicted: Set[int] = set()
        #: Seqs the gateway announced as shed (released as *shed*, not
        #: acked -- a fourth disjoint ledger bucket).
        self.shed: Set[int] = set()
        #: Protocol counters folded across client lives.
        self.proto: Dict[str, int] = {}
        self.spooler = WalSpooler.open_fresh(wal_config, source)
        self._connect()

    def _connect(self) -> None:
        """A fresh client life on the current spool, both feeding the
        ledger sets."""
        self.client = WindowedUplinkClient(
            self.spooler, self._send, self.client_config,
            life=self.recoveries,
        )
        self.spooler.on_evict = self.evicted.update
        self.client.on_acked = self.acked.update
        self.client.on_shed = self.shed.update

    def fold_proto(self) -> None:
        """Fold this client life's cumulative counters into the
        ledger-side totals (called before the client is discarded, and
        once at scenario end for the live client)."""
        for key, value in self.client.stats().items():
            if key in _CLIENT_COUNTER_KEYS and isinstance(value, int):
                self.proto[key] = self.proto.get(key, 0) + value

    # ------------------------------------------------------------------
    def emit(self, budget: int) -> None:
        batch = self.rows[self.cursor:self.cursor + budget]
        self.spooler.append_many(batch)
        self.offered.update([row[SEQ] for row in batch])
        self.cursor += len(batch)

    @property
    def drained(self) -> bool:
        return self.cursor >= len(self.rows)

    # ------------------------------------------------------------------
    def kill(self, torn_tail: bool) -> None:
        """Simulate process death at a record boundary -- or, with
        *torn_tail*, mid-append: the newest WAL line is half-written."""
        self.alive = False
        self.fold_proto()
        self.spooler.abandon()
        if torn_tail:
            self._tear_tail()

    def _tear_tail(self) -> None:
        # Only the active segment's newest row can be mid-write, and
        # only a still-pending row may be rewound in the ledger.
        active = self.spooler.segments[-1]
        if not active.seqs:
            return  # nothing pending in the tail file: clean crash
        raw = active.path.read_bytes()
        lines = raw.split(b"\n")
        if len(lines) < 3:  # header + record + trailing ""
            return
        last = lines[-2]
        kept = raw[: len(raw) - len(last) - 1]
        active.path.write_bytes(kept + last[: len(last) // 2])
        # That append "never happened": rewind the cursor and ledger so
        # the recovered vehicle re-spools the same record.
        torn_seq = self.spooler.last_seq
        self.offered.discard(torn_seq)
        self.cursor -= 1

    def recover(self, now: int) -> None:
        self.spooler, report = WalSpooler.recover(
            self.wal_config, self.source
        )
        self.recoveries += 1
        self.truncated_lines += report.truncated_lines
        self.mark_truncated_lines += report.mark_truncated_lines
        self._connect()
        self.alive = True

    def close(self) -> None:
        self.spooler.close()

    # ------------------------------------------------------------------
    def recovery_json(self) -> dict:
        doc = {
            "recoveries": self.recoveries,
            "truncated_lines": self.truncated_lines,
        }
        if self.mark_truncated_lines:
            # Present only when a mark line was torn, so every other
            # run's report keeps the bytes it had before the journal.
            doc["mark_truncated_lines"] = self.mark_truncated_lines
        return doc

    def ledger_json(self) -> dict:
        spooled = set(self.spooler.pending_seqs())
        union = self.acked | spooled | self.evicted | self.shed
        disjoint = (
            len(self.acked) + len(spooled) + len(self.evicted)
            + len(self.shed) == len(union)
        )
        return {
            "offered": len(self.offered),
            "acked": len(self.acked),
            "spooled": len(spooled),
            "evicted": len(self.evicted),
            "shed": len(self.shed),
            "balanced": self.offered == union and disjoint,
        }


class ChaosDriver:
    """Runs one scenario to convergence and verifies its invariants.

    The step clock, crash schedule, channel pair, dead-letter handling
    and convergence predicate live here once; the methods under *role
    hooks* are the uplink sweep's bare-ingestor server and replaying
    vehicles, and the only things another sweep's driver overrides."""

    result_class = ScenarioResult

    def __init__(self, scenario, config, workdir: Path):
        self.scenario = scenario
        self.config = config
        self.workdir = Path(workdir) / scenario.name
        self.up = AdversarialChannel(
            "uplink", self._deliver_up, scenario.up, seed=config.seed
        )
        self.down = AdversarialChannel(
            "downlink", self._deliver_down, scenario.down, seed=config.seed
        )
        self.server_dir = self.workdir / "fleet"
        self.server_up = True
        self.server_recoveries = 0
        #: What the latest ingest recovery read (``repro gateway
        #: --report`` shows it).
        self.last_recovery = None
        #: ``{step: [events]}`` of every endpoint currently down --
        #: scheduled crashes and the ones a role hook triggers.
        self._pending_recoveries: Dict[int, List[CrashEvent]] = {}
        self.vehicles = self._make_vehicles()
        self.ingestor = UplinkIngestor(
            TelemetryService(self._service_config()),
            self.server_dir,
            fsync=config.fsync,
            checkpoint_every=config.checkpoint_every,
        )

    # ------------------------------------------------------------------
    # Role hooks
    # ------------------------------------------------------------------
    def _service_config(self) -> ServiceConfig:
        return self.config.service_config()

    def _client_token(self, index: int) -> Optional[str]:
        """Shared secret of vehicle *index* (only a gateway asks)."""
        return None

    def _make_vehicles(self) -> list:
        """One vehicle per source of the generated fleet rows (the rows
        also feed ``reference_digest``, while they are at hand)."""
        config = self.config
        fleet = config.fleet_config()
        rows = FleetLoadGenerator(fleet).batch()
        streams: Dict[str, List[tuple]] = {
            source: [] for source in fleet.vehicle_ids()
        }
        for row in rows:
            streams[row[SOURCE]].append(row)

        # The fault-free reference: the same rows, ingested directly.
        reference = TelemetryService(self._service_config())
        apply_rows(reference, rows)
        self.reference_digest = store_digest(reference)

        return [
            _Vehicle(
                source, streams[source],
                WalConfig(
                    directory=self.workdir / source,
                    fsync=config.fsync,
                    segment_max_records=SEGMENT_MAX_RECORDS,
                    max_bytes=self.scenario.wal_max_bytes,
                ),
                client_config(config.seed, self._client_token(index)),
                self._make_send(source),
            )
            for index, source in enumerate(fleet.vehicle_ids())
        ]

    def _vehicle_step(self, vehicle) -> None:
        vehicle.emit(EMIT_PER_STEP)

    def _vehicle_receive(self, vehicle, doc: dict, frame, now: int) -> None:
        vehicle.client.on_ack(doc, now)

    def _server_receive(self, frame, now: int) -> None:
        ack = self.ingestor.handle_payload(frame.payload, now)
        if ack is not None:
            self.down.send(ack, src="fleet", dst=frame.src, now=now)

    def _server_step(self, now: int) -> None:
        """Server work between the uplink and downlink deliveries (the
        gateway drains its backlog and outbox here; the bare ingestor
        is purely reactive)."""

    def _server_tick(self, now: int) -> None:
        """Server work after the clients ticked."""

    def _server_idle(self) -> bool:
        """Extra convergence predicate for stateful servers."""
        return True

    def _server_close(self) -> None:
        self.ingestor.close()

    def _server_recover(self) -> None:
        self.ingestor = self._recover_ingestor()

    def _interventions(self, now: int) -> None:
        """Scenario-scripted actions other than crashes."""

    def _verify(self, result: ScenarioResult) -> None:
        scenario = self.scenario
        result.ledger = self._check_uplink_ledger(result, "ledger")
        evicted_total = sum(len(v.evicted) for v in self.vehicles)
        if scenario.expect_evictions:
            result.check(
                "evictions", evicted_total > 0,
                "scenario expected the disk budget to evict records",
            )
        else:
            result.check(
                "no_evictions", evicted_total == 0,
                f"{evicted_total} records evicted without a budget",
            )
        self._check_accounting(result)
        live_digest = store_digest(self.ingestor.service)
        if scenario.check_digest:
            result.check(
                "digest", live_digest == self.reference_digest,
                "fleet store diverged from the fault-free reference",
            )
        self._check_cold_store(
            result, "recovery_digest", live_digest,
            "cold recovery (checkpoint + WAL replay) != live store",
        )
        result.ingest = self.ingestor.stats()
        totals: Dict[str, int] = {}
        for vehicle in self.vehicles:
            if vehicle.alive:  # dead clients folded at kill() time
                vehicle.fold_proto()
            for key, value in vehicle.proto.items():
                totals[key] = totals.get(key, 0) + value
        result.protocol = totals

    # ------------------------------------------------------------------
    # Shared law checkers
    # ------------------------------------------------------------------
    def _check_uplink_ledger(self, result, name: str) -> dict:
        ledger = {v.source: v.ledger_json() for v in self.vehicles}
        balanced = all(entry["balanced"] for entry in ledger.values())
        result.check(
            name, balanced,
            "offered != acked + spooled + evicted (disjoint) somewhere"
            if not balanced else "",
        )
        return ledger

    def _check_accounting(self, result) -> None:
        result.check(
            "accounting", self.ingestor.service.accounting_ok(),
            "fleet service accounting law violated",
        )

    def _check_cold_store(
        self, result, name: str, live_digest: str, detail: str
    ) -> None:
        """Close the live ingestor; one recovered cold from its
        directory must hold the same store."""
        self.ingestor.close()
        recovered = self._recover_ingestor()
        recovered_digest = store_digest(recovered.service)
        recovered.close()
        result.check(name, recovered_digest == live_digest, detail)

    def _recover_ingestor(self) -> UplinkIngestor:
        ingestor, self.last_recovery = UplinkIngestor.recover(
            self.server_dir,
            self._service_config(),
            fsync=self.config.fsync,
            checkpoint_every=self.config.checkpoint_every,
        )
        return ingestor

    # ------------------------------------------------------------------
    # Channel plumbing and crash machinery
    # ------------------------------------------------------------------
    def _make_send(self, source: str):
        return lambda payload, now: self.up.send(
            payload, src=source, dst="fleet", now=now
        )

    def _deliver_up(self, frame, now: int) -> None:
        if not self.server_up:
            self.up.stats.dead_letter += 1
            return
        self._server_receive(frame, now)

    def _deliver_down(self, frame, now: int) -> None:
        vehicle = next(
            (v for v in self.vehicles if v.source == frame.dst), None
        )
        if vehicle is None or not vehicle.alive:
            self.down.stats.dead_letter += 1
            return
        doc = decode_envelope(frame.payload)
        if doc is not None:
            self._vehicle_receive(vehicle, doc, frame, now)

    def _kill(self, event: CrashEvent) -> bool:
        if event.side == "server":
            if not self.server_up:
                return False
            self.server_up = False
            self._server_close()
            return True
        vehicle = self.vehicles[event.vehicle % len(self.vehicles)]
        if not vehicle.alive:
            return False
        vehicle.kill(event.torn_tail)
        return True

    def _recover(self, event: CrashEvent, now: int) -> None:
        if event.side == "server":
            self._server_recover()
            self.server_up = True
            self.server_recoveries += 1
        else:
            self.vehicles[event.vehicle % len(self.vehicles)].recover(now)

    def _crash(self, event: CrashEvent, now: int) -> None:
        """Kill now (a no-op on an endpoint already down) and schedule
        the recovery ``down_for`` steps later."""
        if self._kill(event):
            self._pending_recoveries.setdefault(
                now + event.down_for, []
            ).append(event)

    # ------------------------------------------------------------------
    def run(self):
        result = self.result_class(name=self.scenario.name)
        pending_kills = sorted(self.scenario.crashes, key=lambda e: e.step)

        for now in range(self.config.max_steps):
            for event in self._pending_recoveries.pop(now, []):
                self._recover(event, now)
            while pending_kills and pending_kills[0].step == now:
                self._crash(pending_kills.pop(0), now)
            self._interventions(now)
            for vehicle in self.vehicles:
                if vehicle.alive:
                    self._vehicle_step(vehicle)
            self.up.step(now)
            if self.server_up:
                self._server_step(now)
            self.down.step(now)
            for vehicle in self.vehicles:
                if vehicle.alive:
                    vehicle.client.tick(now)
            if self.server_up:
                # After the client ticks: what the server sends here
                # (epoch frames) must not enter the channel a step early.
                self._server_tick(now)
            if (
                not pending_kills and not self._pending_recoveries
                and self.server_up
                and all(v.alive and v.drained for v in self.vehicles)
                and all(v.client.idle() for v in self.vehicles)
                and self.up.pending() == 0 and self.down.pending() == 0
                and self._server_idle()
            ):
                result.converged_at = now
                break

        result.check(
            "converged", result.converged_at is not None,
            f"not converged within {self.config.max_steps} steps"
            if result.converged_at is None else "",
        )
        result.channels = {
            "up": self.up.stats.to_json(),
            "down": self.down.stats.to_json(),
        }
        result.recoveries = {
            "server": self.server_recoveries,
            "vehicles": {
                v.source: v.recovery_json()
                for v in self.vehicles if v.recoveries
            },
        }
        self._verify(result)
        for vehicle in self.vehicles:
            vehicle.close()
        return result


# ----------------------------------------------------------------------
# Sweep + CLI
# ----------------------------------------------------------------------
def run_sweep(
    schema: str,
    config,
    scenarios: list,
    workdir: Optional[Path] = None,
    header: Tuple[str, ...] = ("vehicles", "frames", "seed", "fsync"),
) -> dict:
    """Run *scenarios* under *workdir* (default: a temporary directory
    removed afterwards); returns the JSON report document, whose
    ``config`` section carries the *header* fields of *config*."""
    with (
        tempfile.TemporaryDirectory(prefix="repro-sweep-")
        if workdir is None else nullcontext(workdir)
    ) as root:
        docs = [
            scenario.make_driver(config, Path(root)).run().to_json()
            for scenario in scenarios
        ]
    return {
        "schema": schema,
        "config": {key: getattr(config, key) for key in header},
        "ok": all(doc["ok"] for doc in docs),
        "scenarios": docs,
    }


def run_chaos(
    config: Optional[ChaosConfig] = None,
    scenarios: Optional[List[ChaosScenario]] = None,
    workdir: Optional[Path] = None,
) -> dict:
    """Run an uplink scenario sweep; returns the JSON report document."""
    return run_sweep(
        "repro-chaos-report/1",
        config or ChaosConfig(),
        scenarios if scenarios is not None else default_scenarios(),
        workdir,
        header=("vehicles", "frames", "seed", "fsync", "protocol"),
    )


def write_report(path: Path, report: dict) -> None:
    """What ``--report PATH`` does, in every fleet CLI."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report -> {path}")


def sweep_main(
    argv: Optional[List[str]],
    *,
    prog: str,
    description: str,
    run,
    scenarios: list,
    config_class,
    quick: dict,
    result_class,
) -> int:
    """The ``python -m repro <prog>`` command line of a sweep: *run* is
    its ``run_chaos``-shaped sweep function, *scenarios* everything
    ``--list`` shows, *quick* the *config_class* fields ``--quick``
    shrinks."""
    import argparse  # the command line only: the sweep itself needs none

    parser = argparse.ArgumentParser(
        prog=f"repro {prog}", description=description
    )
    parser.add_argument("--quick", action="store_true",
                        help="smaller run (CI smoke)")
    parser.add_argument("--vehicles", type=int, default=None)
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME", help="run only NAME (repeatable)")
    parser.add_argument("--list", action="store_true",
                        help="list scenarios and exit")
    parser.add_argument("--report", type=Path, default=None,
                        metavar="PATH", help="write the JSON report here")
    parser.add_argument("--dir", type=Path, default=None,
                        metavar="PATH", help="work under PATH (kept)")
    parser.add_argument("--fsync", choices=("always", "rotate", "never"),
                        default="never")
    args = parser.parse_args(argv)

    width = result_class.name_width
    if args.list:
        for scenario in scenarios:
            print(f"{scenario.name:<{width}s} {scenario.description}")
        return 0
    if args.scenario:
        known = {scenario.name for scenario in scenarios}
        unknown = [name for name in args.scenario if name not in known]
        if unknown:
            parser.error(f"unknown scenario(s): {', '.join(unknown)}")
        scenarios = [s for s in scenarios if s.name in set(args.scenario)]

    shape = dict(quick) if args.quick else {}
    for key in ("vehicles", "frames"):
        if getattr(args, key) is not None:
            shape[key] = getattr(args, key)
    try:
        config = config_class(seed=args.seed, fsync=args.fsync, **shape)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        report = run(config, scenarios, workdir=args.dir)
    except FileExistsError as exc:
        # A spool refuses a directory that already holds one; wiping a
        # directory the user named is not ours to do.
        parser.error(f"--dir {args.dir} already holds a run ({exc})")
    for entry in report["scenarios"]:
        print(result_class(
            name=entry["name"], ok=entry["ok"],
            converged_at=entry["converged_at"], checks=entry["checks"],
        ).render())
    print(
        f"{prog}: {'ALL PASS' if report['ok'] else 'FAILURES'} "
        f"({len(report['scenarios'])} scenarios, "
        f"vehicles={config.vehicles}, frames={config.frames}, "
        f"seed={config.seed})"
    )
    if args.report is not None:
        write_report(args.report, report)
    return 0 if report["ok"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    from repro.telemetry.gateway.chaos import gateway_scenarios

    return sweep_main(
        argv,
        prog="chaos",
        description="uplink fault x crash chaos sweep with ledger checks",
        run=run_chaos,
        scenarios=default_scenarios() + gateway_scenarios(),
        config_class=ChaosConfig,
        quick={"vehicles": 2, "frames": 16},
        result_class=ScenarioResult,
    )

