"""Deterministic chaos harness for the adaptive budget control plane.

This is the closed-loop sibling of the uplink chaos sweep, run by the
same episode driver (:class:`repro.telemetry.uplink.chaos.ChaosDriver`,
whose vehicle and server role hooks :class:`AdaptDriver` overrides): a
small fleet drives one event chain, each vehicle computes its
per-segment verdicts against the budgets of its **currently active
epoch**, telemetry flows up through
the store-and-forward uplink, and the control plane re-derives,
shadow-validates, canaries, promotes and -- when a canary regresses --
rolls back budget epochs over the downlink.  Faults hit both channel
directions and both endpoints, exactly on schedule, from seeded
streams; no wall clock is read, so a failing schedule replays
byte-identically.

End-of-run conservation laws, per scenario:

- **epoch invariant** -- the union of every budget map any vehicle ever
  installed is a subset of the ledger's ``validated`` set and disjoint
  from ``rejected``: a fleet NEVER runs an epoch that failed shadow
  validation, not even transiently, not even mid-crash;
- **epoch convergence** -- after the dust settles every vehicle's
  active epoch carries the *content digest* of the plane's last-good
  epoch (mixed-epoch fleets heal);
- **vehicle epoch ledger** -- per vehicle,
  ``received == applied + parked + superseded`` as a disjoint union;
- **uplink ledger** -- the store-and-forward law,
  ``offered == acked + spooled + evicted + shed``, still holds
  underneath;
- **recovery equivalence** -- both the fleet store and the epoch
  ledger, recovered cold from disk, match their live counterparts.

Run it: ``python -m repro adapt`` (add ``--quick`` in CI).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.adaptive.controlplane import (
    BudgetControlPlane,
    ControlPlaneConfig,
    ControlPlaneState,
)
from repro.adaptive.epochs import BudgetEpoch, EpochLedger
from repro.adaptive.resolver import ResolverConfig
from repro.adaptive.vehicle import SimulatedApplyCrash, VehicleEpochAgent
from repro.core.chains import EventChain
from repro.core.segments import local_segment, remote_segment
from repro.core.weakly_hard import MKConstraint
from repro.faults.degradation import DegradationMode
from repro.telemetry.records import KIND_CHAIN, KIND_SEGMENT
from repro.telemetry.service import ServiceConfig
from repro.telemetry.store import StoreConfig
from repro.telemetry.uplink.chaos import (
    ChaosDriver,
    CrashEvent,
    EpisodeResult,
    EpisodeScenario,
    _Vehicle,
    client_config,
    run_sweep,
    sweep_main,
)
from repro.telemetry.uplink.ingest import store_digest
from repro.telemetry.uplink.transport import (
    EPOCH_ACK_SCHEMA,
    EPOCH_FRAME_SCHEMA,
    ChannelFaultPlan,
    decode_envelope,
)
from repro.telemetry.uplink.wal import WalConfig

_MS = 1_000_000
#: Lognormal sigma of every segment's latency stream, and the vehicles'
#: WAL segment size (DESIGN.md "Options": no caller varies either).
SIGMA = 0.18
SEGMENT_MAX_RECORDS = 64


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass
class AdaptConfig:
    """Fleet shape and driver knobs shared by every scenario."""

    vehicles: int = 3
    #: Chain activations each vehicle emits (one per step while alive).
    frames: int = 120
    seed: int = 2025
    max_steps: int = 4000
    fsync: str = "never"
    checkpoint_every: Optional[int] = 8

    def __post_init__(self) -> None:
        if self.vehicles < 2:
            raise ValueError("need >= 2 vehicles (canary + control)")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def vehicle_ids(self) -> List[str]:
        return [f"vehicle-{i:03d}" for i in range(self.vehicles)]

    def service_config(self, epoch0: BudgetEpoch) -> ServiceConfig:
        chain = fleet_chain()
        return ServiceConfig(
            queue_capacity=1 << 16,
            store=StoreConfig(
                mk_by_chain={chain.name: (chain.mk.m, chain.mk.k)},
                budget_by_segment=epoch0.flat_budgets(),
            ),
        )


def fleet_chain() -> EventChain:
    """The monitored chain every scenario drives: sensor -> fusion ->
    planner across three ECUs, (3,8)-weakly-hard, B_e2e well above the
    factory deadline sum so the resolver has slack to redistribute."""
    return EventChain(
        name="pipeline",
        segments=[
            remote_segment("seg0", "/sensor", "ecu0", "ecu1",
                           d_mon=8 * _MS),
            local_segment("seg1", "ecu1", "/sensor", "/fused",
                          d_mon=10 * _MS),
            remote_segment("seg2", "/fused", "ecu1", "ecu2",
                           d_mon=12 * _MS),
        ],
        period=50 * _MS,
        budget_e2e=40 * _MS,
        budget_seg=16 * _MS,
        mk=MKConstraint(3, 8),
    )


#: Calm per-segment latency medians (ns); drift multiplies these.
_BASE_NS = {"seg0": 4 * _MS, "seg1": 6 * _MS, "seg2": 8 * _MS}


@dataclass
class AdaptScenario(EpisodeScenario):
    """One named fault x crash x control-plane schedule."""

    #: ``(step, vehicle_index, mode)`` degradation-ladder transitions.
    mode_events: Tuple[Tuple[int, int, str], ...] = ()
    #: ``(first_frame, last_frame, factor, segment)`` latency-drift
    #: windows, in per-vehicle activation indices (crash-resumable);
    #: ``segment == ""`` drifts the whole chain.
    drift: Tuple[Tuple[int, int, float, str], ...] = ()
    #: Inject a doctored (over-tight) candidate at this step: shadow
    #: validation must reject it and it must never reach a vehicle.
    inject_bad_at: Optional[int] = None
    #: Force one ordinary resolve+validate pass at this step (used with
    #: ``rederive_every=0`` for scenarios that need exact timing).
    force_rederive_at: Optional[int] = None
    #: Stage a candidate through resolve+shadow+``validated`` ledger
    #: entries, then kill the server *before* it can publish.
    validate_then_crash_at: Optional[int] = None
    #: Kill this vehicle inside the recv->apply window of its next
    #: fresh epoch frame (torn-apply recovery path).
    crash_on_recv: Optional[int] = None
    crash_down_for: int = 8
    #: Control-plane / resolver overrides (None: scenario defaults).
    control: Optional[ControlPlaneConfig] = None
    resolver: Optional[ResolverConfig] = None
    # Expectations checked at the end of the run.
    expect_promotion: bool = False
    expect_reject: bool = False
    expect_rollback: bool = False
    expect_deferral: bool = False
    expect_pending_recovery: bool = False
    expect_abandoned: bool = False

    def make_driver(
        self, config: "AdaptConfig", workdir: Path
    ) -> "AdaptDriver":
        return AdaptDriver(self, config, workdir)


def _control(rederive_every: int = 48) -> ControlPlaneConfig:
    return ControlPlaneConfig(
        rederive_every=rederive_every, window_records=4096,
        canary_count=1, probation_steps=24, regression_margin=0.5,
        resend_every=6,
    )


def default_scenarios() -> List[AdaptScenario]:
    """The sweep ``python -m repro adapt`` runs: the happy closed loop,
    every control-frame fault class, crashes on both ends at the nasty
    points of the epoch state machine, a partition that leaves the
    fleet mixed-epoch, a seeded bad candidate, and a canary that
    genuinely regresses."""
    drift = ((40, 10 ** 9, 1.5, ""),)
    return [
        AdaptScenario(
            name="adapt_baseline",
            description="drift -> re-derive -> canary -> promote, "
                        "clean channels",
            drift=drift,
            expect_promotion=True,
        ),
        AdaptScenario(
            name="epoch_frame_lost",
            description="25% downlink loss: epoch frames resend until "
                        "acked",
            up=ChannelFaultPlan(drop_prob=0.15),
            down=ChannelFaultPlan(drop_prob=0.25),
            drift=drift,
            expect_promotion=True,
        ),
        AdaptScenario(
            name="epoch_frame_dup_reorder",
            description="heavy duplication + reordering both ways: "
                        "stale frames re-acked, monotonicity holds",
            up=ChannelFaultPlan(dup_prob=0.2, reorder_prob=0.2,
                                jitter_steps=2),
            down=ChannelFaultPlan(dup_prob=0.3, reorder_prob=0.3,
                                  reorder_extra=5, jitter_steps=2),
            drift=drift,
            expect_promotion=True,
        ),
        AdaptScenario(
            name="partition_mixed_epoch",
            description="partition mid-rollout leaves a mixed-epoch "
                        "fleet; heal must reconverge to one digest",
            up=ChannelFaultPlan(partitions=((82, 112),)),
            down=ChannelFaultPlan(partitions=((82, 112),)),
            drift=drift,
            expect_promotion=True,
        ),
        AdaptScenario(
            name="vehicle_crash_mid_apply",
            description="canary dies between durable recv and apply; "
                        "recovery applies exactly once",
            drift=drift,
            crash_on_recv=0,
            crashes=(
                CrashEvent(step=30, side="vehicle", vehicle=1,
                           torn_tail=True),
            ),
            expect_promotion=True,
            expect_pending_recovery=True,
        ),
        AdaptScenario(
            name="server_crash_validate_publish",
            description="server dies between shadow-validate and "
                        "publish; recovery abandons the draft",
            drift=((20, 10 ** 9, 1.5, ""),),
            control=_control(rederive_every=0),
            validate_then_crash_at=60,
            crash_down_for=10,
            expect_abandoned=True,
        ),
        AdaptScenario(
            name="server_crash_mid_canary",
            description="server dies during canary probation; recovery "
                        "walks the canary back to last-good",
            drift=drift,
            crashes=(
                CrashEvent(step=58, side="server", down_for=10),
            ),
            expect_rollback=True,
        ),
        AdaptScenario(
            name="shadow_reject",
            description="seeded over-tight candidate: shadow validation "
                        "rejects, no vehicle ever sees it",
            control=_control(rederive_every=0),
            inject_bad_at=50,
            expect_reject=True,
        ),
        AdaptScenario(
            name="canary_rollback",
            description="tight epoch derived from a calm window, then a "
                        "latency burst in probation: automatic rollback",
            control=_control(rederive_every=0),
            resolver=ResolverConfig(min_activations=12, slack_share=0.0),
            force_rederive_at=60,
            # The burst hits only seg0, where the minimal epoch sits
            # far tighter than the factory budgets the control cohort
            # still runs: the canary regresses, the controls barely do.
            drift=((64, 10 ** 9, 1.6, "seg0"),),
            expect_rollback=True,
        ),
        AdaptScenario(
            name="deferred_apply",
            description="canary DEGRADED when its epoch lands: ack "
                        "deferred, applied exactly once on recovery",
            drift=drift,
            mode_events=((44, 0, "degraded"), (74, 0, "normal")),
            expect_promotion=True,
            expect_deferral=True,
        ),
    ]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class AdaptResult(EpisodeResult):
    """Outcome of one adapt scenario."""

    epochs: dict = field(default_factory=dict)
    vehicles: dict = field(default_factory=dict)
    uplink_ledger: dict = field(default_factory=dict)

    name_width = 26


# ----------------------------------------------------------------------
# Driver internals
# ----------------------------------------------------------------------
class _AdaptiveVehicle(_Vehicle):
    """The uplink sweep's vehicle endpoint (spool + client + ledger
    sets + crash/recover) plus a seeded latency stream scored against
    its *active* epoch's budgets and an epoch agent + ledger."""

    def __init__(
        self,
        source: str,
        chain: EventChain,
        config: AdaptConfig,
        scenario: AdaptScenario,
        workdir: Path,
        epoch0: BudgetEpoch,
        send,
    ):
        self.chain = chain
        self.config = config
        self.scenario = scenario
        self.epoch0 = epoch0
        self.epoch_dir = workdir / source / "epochs"
        self.rng = np.random.default_rng(
            (config.seed * 0x9E3779B1 + zlib.crc32(source.encode()))
            & 0xFFFFFFFF
        )
        #: Budgets the onboard monitors compare against right now.
        self.active_budgets: Dict[str, int] = {}
        #: Every epoch id the install hook ever handed us (any life).
        self.installed_ids: Set[int] = set()
        self.pending_recoveries = 0
        self.activation = 0  # next activation index to generate
        self.seq = 0
        # ``rows`` grows one activation per step; ``cursor`` is the
        # next row index to spool.
        super().__init__(
            source, [],
            WalConfig(
                directory=workdir / source / "spool",
                fsync=config.fsync,
                segment_max_records=SEGMENT_MAX_RECORDS,
            ),
            client_config(config.seed), send,
        )
        self.agent = VehicleEpochAgent(
            source, self.epoch_dir, fsync=config.fsync,
            install=self._install, initial=epoch0,
        )

    def _install(self, epoch: BudgetEpoch) -> None:
        self.installed_ids.add(epoch.epoch_id)
        self.active_budgets = epoch.chain_budget(self.chain.name)

    # ------------------------------------------------------------------
    def _drift_factor(self, activation: int, segment: str) -> float:
        factor = 1.0
        for first, last, value, target in self.scenario.drift:
            if first <= activation <= last and target in ("", segment):
                factor = max(factor, value)
        return factor

    def generate_and_spool(self) -> None:
        """Emit one chain activation: three SEGMENT records scored
        against the active epoch's budgets, plus the CHAIN record whose
        verdict feeds the fleet's (m,k) automata.  Past the last
        activation only a torn tail is left to re-spool."""
        if self.activation < self.config.frames:
            self._generate()
        if self.cursor < len(self.rows):
            self.emit(len(self.rows) - self.cursor)

    def _generate(self) -> None:
        activation = self.activation
        self.activation += 1
        timestamp = (activation + 1) * self.chain.period
        latencies: Dict[str, int] = {}
        for segment in self.chain.segments:
            base = _BASE_NS[segment.name] * self._drift_factor(
                activation, segment.name
            )
            latencies[segment.name] = int(
                base * self.rng.lognormal(0.0, SIGMA)
            )
        missed = False
        for segment in self.chain.segments:
            latency = latencies[segment.name]
            budget = self.active_budgets.get(segment.name)
            miss = budget is not None and latency > budget
            missed = missed or miss
            self.rows.append((
                KIND_SEGMENT, self.source, self.chain.name, segment.name,
                activation, latency, "miss" if miss else "ok", "",
                timestamp, self.seq,
            ))
            self.seq += 1
        self.rows.append((
            KIND_CHAIN, self.source, self.chain.name, "", activation,
            sum(latencies.values()), "miss" if missed else "ok", "",
            timestamp, self.seq,
        ))
        self.seq += 1

    @property
    def drained(self) -> bool:
        return (
            self.activation >= self.config.frames
            and self.cursor >= len(self.rows)
        )

    # ------------------------------------------------------------------
    def handle_epoch_frame(self, payload: str, now: int) -> None:
        """May raise :class:`SimulatedApplyCrash` (armed by scenario)."""
        self._reply(self.agent.handle_frame(payload, now), now)

    def set_mode(self, mode: DegradationMode, now: int) -> None:
        self._reply(self.agent.set_mode(mode, now), now)

    def _reply(self, ack: Optional[str], now: int) -> None:
        if ack is not None:
            self._send(ack, now)

    # ------------------------------------------------------------------
    def kill(self, torn_tail: bool) -> None:
        super().kill(torn_tail)
        self.agent.kill()

    def recover(self, now: int) -> None:
        super().recover(now)
        # The factory baseline is firmware, not WAL content: a vehicle
        # that dies before its first epoch frame comes back on it.
        self.agent, report = VehicleEpochAgent.recover(
            self.source, self.epoch_dir, fsync=self.config.fsync,
            install=self._install, initial=self.epoch0,
        )
        if report.pending_apply:
            self.pending_recoveries += 1
        # The torn-apply window closes here: exactly one apply, acked.
        self._reply(self.agent.apply_pending_if_normal(now), now)

    def close(self) -> None:
        super().close()
        self.agent.close()

    def recovery_json(self) -> dict:
        doc = super().recovery_json()
        doc["pending_applies"] = self.pending_recoveries
        # Torn spool lines appear only when there were any, so a
        # crash-free or cleanly-killed run reports what it always did.
        if not self.truncated_lines:
            del doc["truncated_lines"]
        return doc


class AdaptDriver(ChaosDriver):
    """The episode driver with adaptive vehicles and, next to the
    ingestor, a budget control plane as the server endpoint."""

    result_class = AdaptResult

    def __init__(
        self, scenario: AdaptScenario, config: AdaptConfig, workdir: Path
    ):
        self.chain = fleet_chain()
        self.chains = {self.chain.name: self.chain}
        self.epoch0 = BudgetEpoch(
            epoch_id=0,
            budgets={self.chain.name: {
                segment.name: int(segment.d_mon)  # type: ignore[arg-type]
                for segment in self.chain.segments
            }},
            basis={"bootstrap": True},
        )
        self.server_recovery_info: List[dict] = []
        self.deferred_acks_seen = 0
        self.staged_abandon_id: Optional[int] = None
        self._pending_modes = sorted(scenario.mode_events)
        super().__init__(scenario, config, workdir)
        self.plane = BudgetControlPlane(
            self.chains, config.vehicle_ids(), self.server_dir,
            self._down_send, baseline=self.epoch0, **self._plane_options(),
        )
        self._wire_server()
        if scenario.crash_on_recv is not None:
            index = scenario.crash_on_recv % len(self.vehicles)
            self.vehicles[index].agent.fail_after_recv = True

    def _plane_options(self) -> dict:
        return dict(
            config=self.scenario.control or _control(),
            resolver_config=self.scenario.resolver or ResolverConfig(),
            fsync=self.config.fsync,
        )

    def _wire_server(self) -> None:
        """Cross-wire the current ingestor and plane (either may have
        just been replaced by a recovery)."""
        self.ingestor.on_fresh = (
            lambda rows: self.plane.observe_many(rows)
        )
        self.plane.percentile_provider = (
            lambda: self.ingestor.service.store.segment_percentiles()
        )

    def _down_send(self, payload: str, vehicle: str, now: int) -> None:
        self.down.send(payload, src="fleet", dst=vehicle, now=now)

    # ------------------------------------------------------------------
    # Role hooks
    # ------------------------------------------------------------------
    def _service_config(self) -> ServiceConfig:
        return self.config.service_config(self.epoch0)

    def _make_vehicles(self) -> list:
        return [
            _AdaptiveVehicle(
                source, self.chain, self.config, self.scenario,
                self.workdir, self.epoch0, self._make_send(source),
            )
            for source in self.config.vehicle_ids()
        ]

    def _vehicle_step(self, vehicle: _AdaptiveVehicle) -> None:
        vehicle.generate_and_spool()

    def _vehicle_receive(
        self, vehicle: _AdaptiveVehicle, doc: dict, frame, now: int
    ) -> None:
        if doc.get("schema") != EPOCH_FRAME_SCHEMA:
            super()._vehicle_receive(vehicle, doc, frame, now)
            return
        try:
            vehicle.handle_epoch_frame(frame.payload, now)
        except SimulatedApplyCrash:
            self._crash(CrashEvent(
                step=now, side="vehicle",
                vehicle=self.vehicles.index(vehicle),
                down_for=self.scenario.crash_down_for,
            ), now)

    def _server_receive(self, frame, now: int) -> None:
        doc = decode_envelope(frame.payload)
        if doc is not None and doc.get("schema") == EPOCH_ACK_SCHEMA:
            if doc.get("status") == "deferred":
                self.deferred_acks_seen += 1
            self.plane.on_ack(doc, now)
        else:
            super()._server_receive(frame, now)

    def _server_tick(self, now: int) -> None:
        self.plane.tick(
            now, self.ingestor.service.store.violations_by_source
        )

    def _server_idle(self) -> bool:
        target = self.plane.last_good.digest()
        return (
            not self._pending_modes
            and self.plane.state is ControlPlaneState.IDLE
            and self.plane.distributor.idle()
            and all(
                v.agent.pending is None and v.agent.active is not None
                and v.agent.active.digest() == target
                for v in self.vehicles
            )
        )

    def _server_close(self) -> None:
        super()._server_close()
        self.plane.close()

    def _server_recover(self) -> None:
        super()._server_recover()
        self.plane, recovery = BudgetControlPlane.recover(
            self.chains, self.config.vehicle_ids(), self.server_dir,
            self._down_send, **self._plane_options(),
        )
        self._wire_server()
        self.server_recovery_info.append(recovery)

    def _interventions(self, now: int) -> None:
        scenario = self.scenario
        while self._pending_modes and self._pending_modes[0][0] == now:
            _, index, mode = self._pending_modes.pop(0)
            vehicle = self.vehicles[index % len(self.vehicles)]
            if vehicle.alive:
                vehicle.set_mode(DegradationMode(mode), now)
        if scenario.validate_then_crash_at == now:
            self._stage_validate_then_crash(now)
        if self.server_up:
            if scenario.inject_bad_at == now:
                self.plane.consider(
                    now, candidate=self._doctored_candidate(now)
                )
            if scenario.force_rederive_at == now:
                self.plane.consider(now)

    # ------------------------------------------------------------------
    # Scenario interventions
    # ------------------------------------------------------------------
    def _doctored_candidate(self, now: int) -> BudgetEpoch:
        last = self.plane.last_good
        return BudgetEpoch(
            epoch_id=self.plane.ledger.next_epoch_id,
            budgets={
                chain: {
                    segment: max(1, int(d_mon * 0.45))
                    for segment, d_mon in segments.items()
                }
                for chain, segments in last.budgets.items()
            },
            basis={"injected": True, "step": now},
            parent_id=last.epoch_id,
        )

    def _stage_validate_then_crash(self, now: int) -> None:
        """Mimic a crash in the validate->publish window at the ledger
        level: the candidate is recorded and validated, the publication
        never happens, and the server goes down."""
        if not self.server_up or self.plane.state is not ControlPlaneState.IDLE:
            return
        outcome = self.plane.resolver.resolve(list(self.plane.window))
        if outcome.ok:
            candidate = outcome.epoch(
                epoch_id=self.plane.ledger.next_epoch_id,
                parent_id=self.plane.last_good.epoch_id,
                basis={"staged": True},
            )
            if candidate.digest() != self.plane.last_good.digest():
                self.plane.ledger.record_epoch(candidate)
                verdict = self.plane.shadow.validate(
                    list(self.plane.window), candidate, self.plane.last_good
                )
                if verdict.accepted:
                    self.plane.ledger.record_validated(
                        candidate.epoch_id, verdict.to_json()
                    )
                    self.staged_abandon_id = candidate.epoch_id
        self._crash(CrashEvent(
            step=now, side="server", down_for=self.scenario.crash_down_for,
        ), now)

    # ------------------------------------------------------------------
    def _verify(self, result: AdaptResult) -> None:
        scenario = self.scenario

        # --- epoch invariant: nothing unvalidated ever ran anywhere.
        ledger = self.plane.ledger
        ran: Set[int] = set()
        for vehicle in self.vehicles:
            ran |= vehicle.installed_ids
            ran |= vehicle.agent.applied
        unvalidated = ran - ledger.validated
        poisoned = ran & set(ledger.rejected)
        result.check(
            "epoch_invariant", not unvalidated and not poisoned,
            f"ran unvalidated={sorted(unvalidated)} "
            f"rejected={sorted(poisoned)}"
            if unvalidated or poisoned else "",
        )
        received_rejected = {
            vehicle.source: sorted(
                vehicle.agent.received & set(ledger.rejected)
            )
            for vehicle in self.vehicles
            if vehicle.agent.received & set(ledger.rejected)
        }
        result.check(
            "rejected_never_distributed", not received_rejected,
            f"rejected epochs reached vehicles: {received_rejected}"
            if received_rejected else "",
        )

        # --- convergence: one fleet, one digest.
        target = self.plane.last_good.digest()
        stragglers = [
            vehicle.source for vehicle in self.vehicles
            if vehicle.agent.active is None
            or vehicle.agent.active.digest() != target
        ]
        result.check(
            "epoch_convergence", not stragglers,
            f"vehicles not on last-good budgets: {stragglers}"
            if stragglers else "",
        )

        # --- conservation laws.
        result.vehicles = {
            vehicle.source: vehicle.agent.ledger_json()
            for vehicle in self.vehicles
        }
        balanced = all(
            entry["balanced"] for entry in result.vehicles.values()
        )
        result.check(
            "epoch_ledger", balanced,
            "received != applied + pending + superseded (disjoint)"
            if not balanced else "",
        )
        result.uplink_ledger = self._check_uplink_ledger(
            result, "uplink_ledger"
        )
        self._check_accounting(result)

        # --- recovery equivalence (store and epoch ledger).
        self._check_cold_store(
            result, "store_recovery", store_digest(self.ingestor.service),
            "cold store recovery != live store",
        )
        live_ledger = ledger.to_json()
        self.plane.close()
        cold_ledger, _ = EpochLedger.recover(
            self.server_dir / "epochs.log", fsync=self.config.fsync
        )
        cold_json = cold_ledger.to_json()
        cold_ledger.close()
        result.check(
            "ledger_recovery", cold_json == live_ledger,
            "cold epoch-ledger replay != live ledger",
        )

        # --- scenario expectations, all derived from the durable ledger
        # (crash-proof, unlike in-memory counters).
        promoted = [
            eid for eid, stage, _ in ledger.published
            if stage == "fleet" and eid > 0
            and ledger.epochs[eid].rollback_of is None
        ]
        if scenario.expect_promotion:
            result.check(
                "promotion", bool(promoted),
                "no re-derived epoch reached a fleet rollout",
            )
        if scenario.expect_reject:
            result.check(
                "rejected", bool(ledger.rejected),
                "scenario expected a shadow-validation rejection",
            )
        if scenario.expect_rollback:
            result.check(
                "rollback", bool(ledger.rollbacks),
                "scenario expected an automatic rollback",
            )
        if scenario.expect_deferral:
            result.check(
                "deferral", self.deferred_acks_seen > 0,
                "scenario expected a deferred epoch ack",
            )
        if scenario.expect_pending_recovery:
            result.check(
                "pending_recovery",
                any(v.pending_recoveries > 0 for v in self.vehicles),
                "no vehicle recovered through the torn-apply window",
            )
        if scenario.expect_abandoned:
            abandoned = [
                eid
                for info in self.server_recovery_info
                for eid in info.get("abandoned", [])
            ]
            result.check(
                "abandoned",
                self.staged_abandon_id is not None
                and self.staged_abandon_id in abandoned,
                f"staged draft {self.staged_abandon_id} not abandoned "
                f"on recovery (abandoned={abandoned})",
            )

        result.epochs = {
            "last_good": self.plane.last_good.epoch_id,
            "last_good_digest": target,
            "ledger": live_ledger,
            "promoted": promoted,
            "staged_abandoned": self.staged_abandon_id,
        }
        result.recoveries["server_info"] = self.server_recovery_info


# ----------------------------------------------------------------------
# Sweep + CLI
# ----------------------------------------------------------------------
def run_adapt(
    config: Optional[AdaptConfig] = None,
    scenarios: Optional[List[AdaptScenario]] = None,
    workdir: Optional[Path] = None,
) -> dict:
    """Run a scenario sweep; returns the JSON report document."""
    return run_sweep(
        "repro-adapt-report/1",
        config or AdaptConfig(),
        scenarios if scenarios is not None else default_scenarios(),
        workdir,
    )


def main(argv: Optional[List[str]] = None) -> int:
    return sweep_main(
        argv,
        prog="adapt",
        description="closed-loop budget control plane chaos sweep "
                    "(epochs, shadow validation, canary, rollback)",
        run=run_adapt,
        scenarios=default_scenarios(),
        config_class=AdaptConfig,
        quick={"frames": 96},
        result_class=AdaptResult,
    )

