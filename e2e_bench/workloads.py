"""The five workloads: what one op is, and what is read off it.

Each workload turns a position in the op sequence into an
:class:`OpSpec`, runs it (the timed part: build + run, exactly what a
user of the library would call) and observes the finished run (untimed:
digest, sim-time samples, the layers' own counters).  Inputs derive
from the seeds only; the program under test sees nothing of the
benchmark but its generated inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.chain_runtime import Outcome
from repro.faults.base import FaultInjector
from repro.faults.campaign import (
    CampaignConfig,
    FaultCampaign,
    default_scenarios,
)
from repro.perception import PerceptionStack, StackConfig
from repro.perception.scenario import ScenarioConfig
from repro.telemetry.gateway.chaos import GatewayChaosScenario
from repro.telemetry.uplink.chaos import ChaosConfig, CrashEvent
from repro.telemetry.uplink.ingest import store_digest
from repro.telemetry.uplink.transport import ChannelFaultPlan

#: Pinned input seeds.  ``--seed`` picks and orders four of them, so
#: every op's outputs can be checked against ``expected/``.  To add a
#: seed: append it here and run ``python -m e2e_bench pin``.
SEED_POOL = (1, 2, 3, 4, 5, 6, 7, 8)
SEEDS_PER_RUN = 4


def derive_seeds(seed: int) -> List[int]:
    """The four input seeds a run cycles over, from ``--seed``."""
    return random.Random(seed).sample(SEED_POOL, SEEDS_PER_RUN)


@dataclass(frozen=True)
class OpSpec:
    """One op of a workload's sequence."""

    #: Ops of one kind do the same work; op times are summarised per
    #: kind before they are combined, so a seed or scenario that costs
    #: more does not move the statistic by where the run happened to stop.
    kind: str
    #: Key of the pinned outputs under ``expected/<workload>.json``.
    pin: str
    seed: int
    #: ``main`` ops feed the throughput metric; ``stack_sparse`` adds an
    #: ``unmonitored`` side run in alternation with the main one.
    side: str = "main"
    scenario: Optional[str] = None


@dataclass
class Observation:
    """What one finished op showed."""

    digest: str
    ok: bool
    detail: str
    frames: int
    records: int
    #: Sim-time samples (ns or steps), pooled by the caller.
    sim: Dict[str, List[int]] = field(default_factory=dict)
    #: Counters read from the layers' public stats objects.
    counts: Dict[str, float] = field(default_factory=dict)


def _digest(payload) -> str:
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Perception stack workloads
# ----------------------------------------------------------------------
def sparse_scenario(seed: int):
    """Clouds shrunk until the numerics stop dominating a frame."""
    return ScenarioConfig(
        seed=seed, ground_rings=2, points_per_ring=24, max_objects=1,
        points_per_object_mean=10,
    )


def _stack_observation(stack, frames: int) -> Observation:
    """Fingerprint + samples of a finished :class:`PerceptionStack`."""
    chains = {}
    latencies: List[int] = []
    reports = 0
    for name, runtime in sorted(stack.chain_runtimes.items()):
        rows = []
        segments = [s.name for s in runtime.chain.segments]
        for activation in sorted(runtime.records):
            per_segment = runtime.records[activation]
            reports += len(per_segment)
            rows.append([activation] + [
                [seg, rec.outcome.value, rec.latency, rec.detection_latency]
                for seg, rec in sorted(per_segment.items())
            ])
            parts = [
                per_segment[seg].latency for seg in segments
                if seg in per_segment
            ]
            if len(parts) == len(segments) and None not in parts:
                latencies.append(sum(parts))
        chains[name] = rows
    detect: List[int] = []
    exceptions = []
    outcomes = {Outcome.RECOVERED: 0, Outcome.MISS: 0}
    sources = {**stack.local_runtimes, **stack.remote_monitors}
    for segment, source in sorted(sources.items()):
        for exc in source.exceptions:
            exceptions.append(
                [segment, exc.activation, exc.deadline, exc.raised_at]
            )
            detect.append(exc.detection_latency)
        for _n, _latency, outcome in source.latencies:
            if outcome in outcomes:
                outcomes[outcome] += 1
    links = [stack.link_front, stack.link_rear, stack.link_12]
    nodes = [
        stack.lidar_front.node, stack.lidar_rear.node, stack.node_fusion,
        stack.node_classifier, stack.node_detector, stack.node_rviz,
    ]
    samples = sum(
        publisher.writer.published
        for node in nodes for publisher in node.publishers
    )
    counts = {
        "core.reports": reports,
        "core.exceptions": len(exceptions),
        "core.recovered": outcomes[Outcome.RECOVERED],
        "core.propagated": outcomes[Outcome.MISS],
        "dds.samples": samples,
        "network.frames_sent": sum(l.stats.sent for l in links),
        "network.frames_lost": sum(l.stats.lost for l in links),
        "ros.callbacks": sum(n.executor.callbacks_executed for n in nodes),
    }
    callback_errors = sum(n.executor.callback_errors for n in nodes)
    digest = _digest({
        "chains": chains,
        "exceptions": exceptions,
        "arrivals": {
            topic: [list(row) for row in rows]
            for topic, rows in sorted(stack.sink.arrivals.items())
        },
        "counts": counts,
        "fused": stack.fusion.fused_count,
        "detected": stack.detector.detected_count,
        "sim_now": stack.sim.now,
    })
    return Observation(
        digest=digest,
        ok=callback_errors == 0,
        detail=f"{callback_errors} callback errors" if callback_errors else "",
        frames=frames,
        records=reports,
        sim={"chain_latency_ns": latencies, "detect_latency_ns": detect},
        counts=counts,
    )


class Workload:
    """What :mod:`e2e_bench.measure` asks of a workload: ``spec_at`` and
    ``pin_specs`` name ops; ``prepare`` (untimed), ``run`` (timed, =
    ``build`` + the run itself) and ``observe`` (untimed) execute one."""

    def cleanup(self, scratch: Path) -> None:
        """Remove what the workload's ops left under *scratch*."""


class StackDense(Workload):
    """The paper's use case as shipped."""

    name = "stack_dense"
    frames = 4
    group = SEEDS_PER_RUN
    #: Untimed ops before measuring: one per seed (and side).
    warmup_ops = group

    def spec_at(self, seeds: Sequence[int], index: int) -> OpSpec:
        seed = seeds[index % len(seeds)]
        return OpSpec(kind=f"seed{seed}", pin=f"seed{seed}", seed=seed)

    def pin_specs(self) -> List[OpSpec]:
        return [self.spec_at(SEED_POOL, i) for i in range(len(SEED_POOL))]

    def config(self, spec: OpSpec):
        return StackConfig(
            seed=spec.seed, monitoring=True, trace_prefixes=(),
            scenario=ScenarioConfig(seed=spec.seed),
        )

    def prepare(self, spec: OpSpec, scratch: Path):
        return self.config(spec)

    def build(self, spec: OpSpec, config):
        return PerceptionStack(config)

    def run(self, spec: OpSpec, config):
        stack = self.build(spec, config)
        stack.run(n_frames=self.frames)
        return stack

    def observe(self, spec: OpSpec, stack) -> Observation:
        return _stack_observation(stack, self.frames)


class StackSparse(StackDense):
    """Same stack, tiny clouds, monitored/unmonitored in alternation."""

    name = "stack_sparse"
    frames = 30
    group = 2 * SEEDS_PER_RUN
    warmup_ops = group

    def spec_at(self, seeds: Sequence[int], index: int) -> OpSpec:
        pair, position = divmod(index, 2)
        seed = seeds[pair % len(seeds)]
        # Which side runs first alternates per pair, and per seed from
        # one cycle to the next, so neither side owns the warmer slot.
        monitored_first = (pair + pair // len(seeds)) % 2 == 0
        monitored = (position == 0) == monitored_first
        side = "main" if monitored else "unmonitored"
        label = "monitored" if monitored else "unmonitored"
        return OpSpec(kind=f"seed{seed}", pin=f"seed{seed}/{label}",
                      seed=seed, side=side)

    def pin_specs(self) -> List[OpSpec]:
        return [self.spec_at(SEED_POOL, i) for i in range(2 * len(SEED_POOL))]

    def config(self, spec: OpSpec):
        return StackConfig(
            seed=spec.seed, monitoring=spec.side == "main",
            trace_prefixes=(), scenario=sparse_scenario(spec.seed),
        )


# ----------------------------------------------------------------------
# Fault campaign workload
# ----------------------------------------------------------------------
class _StackTap(FaultInjector):
    """An injector that injects nothing: ``FaultCampaign`` builds its
    stack internally, and ``arm`` is where it hands it to outsiders."""

    stack = None

    def _arm(self, stack) -> None:
        self.stack = stack


class FaultStorm(Workload):
    """One sparse-cloud fault scenario per op, all 11 in rotation."""

    name = "fault_storm"
    frames = 60
    warmup_ops = SEEDS_PER_RUN

    def __init__(self) -> None:
        self.scenario_names = [s.name for s in default_scenarios()]
        self.group = len(self.scenario_names)

    def spec_at(self, seeds: Sequence[int], index: int) -> OpSpec:
        scenario = self.scenario_names[index % self.group]
        seed = seeds[index % len(seeds)]
        return OpSpec(kind=scenario, pin=f"{scenario}/seed{seed}",
                      seed=seed, scenario=scenario)

    def pin_specs(self) -> List[OpSpec]:
        return [
            OpSpec(kind=name, pin=f"{name}/seed{seed}", seed=seed,
                   scenario=name)
            for name in self.scenario_names for seed in SEED_POOL
        ]

    def prepare(self, spec: OpSpec, scratch: Path):
        tap = _StackTap()
        scenario = next(
            s for s in default_scenarios() if s.name == spec.scenario
        )
        build = scenario.build
        scenario = dataclasses.replace(
            scenario,
            build=lambda n: [*build(n), tap],
            config_overrides={
                **scenario.config_overrides,
                "scenario": sparse_scenario(spec.seed),
            },
        )
        campaign = FaultCampaign(
            [scenario], CampaignConfig(n_frames=self.frames, seed=spec.seed)
        )
        return campaign, tap

    def build(self, spec: OpSpec, prepared):
        return prepared  # the campaign builds its stack inside run()

    def run(self, spec: OpSpec, prepared):
        campaign, tap = prepared
        return campaign.run(), tap

    def observe(self, spec: OpSpec, handle) -> Observation:
        campaign_result, tap = handle
        result = campaign_result.scenarios[0]
        inner = _stack_observation(tap.stack, self.frames)
        payload = dataclasses.asdict(result)
        failures = result.soundness.failures + result.completeness.failures
        counts = dict(inner.counts)
        counts["faults.degradation.transitions"] = len(result.mode_transitions)
        return Observation(
            digest=_digest({"result": payload, "stack": inner.digest}),
            ok=result.passed and inner.ok,
            detail="; ".join(f"{f.oracle}:{f.subject}@{f.activation}"
                             for f in failures[:3]) or inner.detail,
            frames=self.frames,
            records=result.telemetry_records,
            sim=inner.sim,
            counts=counts,
        )


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------
class FleetClean(Workload):
    """Vehicle WAL -> windowed ARQ -> gateway -> ingestor -> store."""

    name = "fleet_clean"
    vehicles = 4
    fleet_frames = 30
    frames = vehicles * fleet_frames
    group = SEEDS_PER_RUN
    warmup_ops = group

    def spec_at(self, seeds: Sequence[int], index: int) -> OpSpec:
        seed = seeds[index % len(seeds)]
        return OpSpec(kind=f"seed{seed}", pin=f"seed{seed}", seed=seed)

    def pin_specs(self) -> List[OpSpec]:
        return [self.spec_at(SEED_POOL, i) for i in range(len(SEED_POOL))]

    def scenario(self):
        return GatewayChaosScenario(
            name=self.name, description="clean channels, no crashes",
        )

    def prepare(self, spec: OpSpec, scratch: Path):
        self.cleanup(scratch)
        config = ChaosConfig(
            vehicles=self.vehicles, frames=self.fleet_frames,
            seed=spec.seed, protocol="windowed",
        )
        return self.scenario(), config, scratch

    def build(self, spec: OpSpec, prepared):
        scenario, config, scratch = prepared
        return scenario.make_driver(config, scratch)

    def run(self, spec: OpSpec, prepared):
        driver = self.build(spec, prepared)
        return driver, driver.run()

    def observe(self, spec: OpSpec, handle) -> Observation:
        driver, result = handle
        service = driver.ingestor.service
        ledger = result.ledger
        shed = sum(entry["shed"] for entry in ledger.values())
        balanced = all(
            entry["balanced"] and entry["offered"] == (
                entry["acked"] + entry["spooled"] + entry["evicted"]
                + entry["shed"]
            )
            for entry in ledger.values()
        )
        failed_checks = [c["name"] for c in result.checks if not c["ok"]]
        problems = list(failed_checks)
        if shed:
            problems.append(f"{shed} records shed")
        if not balanced:
            problems.append("ledger law broken")
        protocol = result.protocol
        up, down = result.channels["up"], result.channels["down"]
        rejects = sum(
            protocol.get(key, 0) for key in (
                "auth_rejects", "session_rejects", "window_rejects",
                "gateway_rate_rejects",
            )
        )
        counts = {
            "telemetry.uplink.window.frames_sent": protocol["frames_sent"],
            "telemetry.uplink.window.retransmits": protocol["retransmits"],
            "telemetry.uplink.window.window_stalls":
                protocol["window_stalls"],
            "telemetry.uplink.transport.delivered":
                up["delivered"] + down["delivered"],
            "telemetry.uplink.transport.dropped":
                up["dropped"] + down["dropped"],
            "telemetry.uplink.transport.duplicated":
                up["duplicated"] + down["duplicated"],
            "telemetry.gateway.shed_records":
                sum(protocol["shed_by_class"].values()) + shed,
            "telemetry.gateway.rejects": rejects,
            "telemetry.uplink.ingest.checkpoints":
                result.ingest["checkpoints"],
            "telemetry.uplink.ingest.duplicates_absorbed":
                result.ingest["records_duplicate"],
            "telemetry.store.applied": service.store.applied,
        }
        return Observation(
            digest=_digest({
                "store": store_digest(service),
                "converged_at": result.converged_at,
                "ledger": ledger,
                "counts": counts,
            }),
            ok=result.ok and not problems,
            detail=", ".join(problems),
            frames=self.frames,
            records=service.store.applied,
            sim={"converge_steps": [result.converged_at or 0]},
            counts=counts,
        )

    def cleanup(self, scratch: Path) -> None:
        shutil.rmtree(scratch / self.name, ignore_errors=True)


class FleetChaos(FleetClean):
    """The same episode over lossy channels with one server crash."""

    name = "fleet_chaos"

    def scenario(self):
        plan = ChannelFaultPlan(drop_prob=0.1, dup_prob=0.1, reorder_prob=0.1)
        return GatewayChaosScenario(
            name=self.name,
            description="drop+dup+reorder both ways, one server crash",
            up=plan, down=plan,
            crashes=(CrashEvent(step=10, side="server"),),
        )


WORKLOADS = {
    cls.name: cls
    for cls in (StackDense, StackSparse, FaultStorm, FleetClean, FleetChaos)
}


def make(name: str):
    """Instantiate the workload called *name*."""
    try:
        return WORKLOADS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r} (have {', '.join(WORKLOADS)})"
        ) from None
