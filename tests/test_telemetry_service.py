"""End-to-end telemetry service: campaign replay, load, alert rules.

The headline acceptance property lives here: replaying a fault-campaign
scenario through the service raises an ``mk_violation`` alert for every
ground-truth chain (m,k) violation -- no more, no fewer.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from _differential import reference_engines
from _reference import scalar_store

from repro.schema import encode_json
from repro.faults.campaign import CampaignConfig, FaultCampaign, default_scenarios
from repro.faults.degradation import GracefulDegradationManager
from repro.perception.stack import PerceptionStack, StackConfig
from repro.telemetry import (
    FleetConfig,
    FleetLoadGenerator,
    RULE_HEARTBEAT,
    RULE_LATENCY_BUDGET,
    RULE_MK_MARGIN,
    RULE_MK_VIOLATION,
    RULE_QUEUE_DROPS,
    RULE_SEQ_GAP,
    ServiceConfig,
    TelemetryService,
    WIRE_SCHEMA,
    replay_stack_batch,
    run_load,
)
from repro.telemetry.gateway.status import status_report
from repro.telemetry.service import DEFAULT_CAPACITY
from repro.telemetry.uplink.chaos import ChaosConfig

#: Environment override for the throughput floor (records/s); the
#: acceptance criterion is 50k single-process on a developer machine.
MIN_RPS_ENV = "REPRO_TELEMETRY_MIN_RPS"


def _stream_bytes(records) -> str:
    """One JSON line per record under a schema header line: the bytes
    the pinned stream digests below were taken of."""
    lines = [json.dumps({"schema": WIRE_SCHEMA})]
    lines.extend(encode_json(record) for record in records)
    return "\n".join(lines) + "\n"


def _run_scenario_stack(name, n_frames=24):
    """Run one campaign scenario; return (stack, manager, config)."""
    cc = CampaignConfig(n_frames=n_frames)
    scenario = next(s for s in default_scenarios() if s.name == name)
    stack = PerceptionStack(dataclasses.replace(
        StackConfig(seed=cc.seed), **scenario.config_overrides
    ))
    injectors = scenario.build(cc.n_frames)
    for injector in injectors:
        injector.arm(stack)
    manager = GracefulDegradationManager(
        stack, policy=cc.policy, watchdog=cc.watchdog
    )
    manager.start(cc.n_frames)
    stack.run(n_frames=cc.n_frames)
    for runtime in stack.chain_runtimes.values():
        runtime.advance_window(cc.n_frames - 1)
    return stack, manager, cc


class TestCampaignReplay:
    def test_alert_for_every_ground_truth_violation(self):
        # executor_stall produces real chain (m,k) violations.
        stack, manager, cc = _run_scenario_stack("executor_stall")
        truth = sum(
            rt.window.violations for rt in stack.chain_runtimes.values()
        )
        assert truth > 0, "scenario no longer violates; pick another"
        counts, applied = FaultCampaign._replay_telemetry(
            stack, "executor_stall", cc.n_frames, manager
        )
        assert counts.get(RULE_MK_VIOLATION, 0) == truth
        assert applied > 0

    def test_no_spurious_violation_alerts(self):
        # loss_burst is fully masked by recovery: zero ground-truth
        # chain violations, so zero mk_violation alerts.
        stack, manager, cc = _run_scenario_stack("loss_burst")
        truth = sum(
            rt.window.violations for rt in stack.chain_runtimes.values()
        )
        assert truth == 0
        counts, _applied = FaultCampaign._replay_telemetry(
            stack, "loss_burst", cc.n_frames, manager
        )
        assert counts.get(RULE_MK_VIOLATION, 0) == 0

    def test_replay_is_deterministic(self):
        stack, manager, cc = _run_scenario_stack("loss_burst")
        streams = [
            replay_stack_batch(stack, "s", cc.n_frames, manager)
            for _ in range(2)
        ]
        assert streams[0] == streams[1]

    def test_scenario_result_carries_alert_counts(self):
        cc = CampaignConfig(n_frames=24)
        scenario = next(
            s for s in default_scenarios() if s.name == "executor_stall"
        )
        result = FaultCampaign([scenario], cc).run()
        assert result.scenarios[0].alert_counts.get(RULE_MK_VIOLATION, 0) > 0
        assert result.scenarios[0].telemetry_records > 0
        assert "alerts" in result.render_report().splitlines()[0]


class TestLoadGenerator:
    @staticmethod
    def stream(**config) -> str:
        generator = FleetLoadGenerator(FleetConfig(vehicles=3, frames=60, **config))
        return _stream_bytes(generator.materialize())

    def test_stream_digest_is_deterministic(self):
        assert self.stream() == self.stream()

    def test_digest_depends_on_seed(self):
        assert self.stream(seed=1) != self.stream(seed=2)

    @pytest.mark.parametrize("vehicles, frames, digest, lost", [
        (3, 60,
         "4feba0ec01eb27dbe00d590456eb0c8af63e78ef695b08356df0b9e316d57fad", 0),
        # One faulty vehicle: fault window, transport loss, silent tail.
        (4, 400,
         "5beab22c3caf8ef0c37674867855c945f155d074675dc1274a433d6a5ff5de12", 12),
    ])
    def test_stream_bytes_are_pinned(self, vehicles, frames, digest, lost):
        generator = FleetLoadGenerator(
            FleetConfig(vehicles=vehicles, frames=frames)
        )
        stream = _stream_bytes(generator.materialize())
        assert hashlib.sha256(stream.encode()).hexdigest() == digest
        assert generator.lost_in_transport == lost

    @pytest.mark.parametrize("config, digest, rows, lost", [
        (FleetConfig(),
         "aafabc13bea993a9e20902a046e94b0f1aaebbc69e1a1a625dfdb00daffe3849",
         24801, 34),
        # The gateway sweep's fleet: vehicle 3 is faulty and the last,
        # so it goes silent at frame 20.
        (ChaosConfig(vehicles=4, frames=30, faulty_every=4).fleet_config(),
         "6a64f31c65e6b646286cad681dc59a1a2029a82c279b3ad9dcb38fa2da7c5cdb",
         890, 1),
        (FleetConfig(faulty_every=1),
         "da1bab471ca0b825a00bece99652abe397f7db2322385cca5ad63eb4406d39d6",
         24639, 196),
        (FleetConfig(vehicles=1),
         "04eb4be1d32e4a3da9b02973d46b6fe7c86cfacc3cce6f84f8aa296f6552e707",
         3240, 0),
    ])
    def test_batch_rows_are_pinned(self, config, digest, rows, lost):
        # Digests of the rows as drawn one rng.random() scalar at a
        # time; the generator now takes each vehicle's draws as one
        # vector, which must yield the same doubles in the same order.
        generator = FleetLoadGenerator(config)
        stream = generator.batch()
        sha = hashlib.sha256()
        for row in stream:
            sha.update(repr(row).encode())
        sha.update(repr(generator.lost_in_transport).encode())
        assert (sha.hexdigest(), len(stream), generator.lost_in_transport) == (
            digest, rows, lost
        )

    @pytest.mark.parametrize("capacity", [DEFAULT_CAPACITY, 256])
    def test_batched_load_equals_the_per_record_path(self, capacity):
        # The per-record path: the scalar fold of
        # tests/_reference/scalar_store.py in place of apply_batch.
        fleet = FleetConfig(vehicles=4, frames=200)

        def load():
            service = TelemetryService(ServiceConfig(
                queue_capacity=capacity, store=fleet.store_config()
            ))
            run_load(service, FleetLoadGenerator(fleet))
            return service

        batched = load()
        folded = scalar_store.folded
        with reference_engines(telemetry=True):
            per_record = load()
        assert scalar_store.folded - folded == per_record.applied > 0
        assert batched.alert_log.to_jsonl() == per_record.alert_log.to_jsonl()
        assert batched.snapshot() == per_record.snapshot()
        assert batched.stats() == per_record.stats()
        drops = batched.alert_log.counts_by_rule().get(RULE_QUEUE_DROPS, 0)
        assert drops == (1 if capacity == 256 else 0)

    def test_load_run_sustains_throughput_with_zero_silent_drops(self):
        floor = float(os.environ.get(MIN_RPS_ENV, 50_000))
        generator = FleetLoadGenerator(FleetConfig(vehicles=4, frames=200))
        service = TelemetryService(
            ServiceConfig(store=generator.config.store_config())
        )
        report = run_load(service, generator)
        assert report.accounting_ok
        assert report.dropped == 0
        assert report.applied == report.records
        assert report.records_per_s >= floor, (
            f"{report.records_per_s:,.0f} records/s under the "
            f"{floor:,.0f} floor (override via {MIN_RPS_ENV})"
        )

    def test_every_traffic_alert_rule_fires(self):
        # 4 vehicles x 400 frames: one faulty vehicle (fault window,
        # lossy transport, silent tail) gives every rule traffic.
        generator = FleetLoadGenerator(FleetConfig(vehicles=4, frames=400))
        service = TelemetryService(
            ServiceConfig(store=generator.config.store_config())
        )
        report = run_load(service, generator)
        for rule in (RULE_MK_VIOLATION, RULE_MK_MARGIN, RULE_LATENCY_BUDGET,
                     RULE_SEQ_GAP, RULE_HEARTBEAT):
            assert report.alerts_by_rule.get(rule, 0) > 0, rule
        assert generator.lost_in_transport > 0

    def test_service_snapshot_round_trip_after_load(self):
        generator = FleetLoadGenerator(FleetConfig(vehicles=2, frames=80))
        service = TelemetryService(
            ServiceConfig(store=generator.config.store_config())
        )
        run_load(service, generator)
        snapshot = service.snapshot()
        fresh = TelemetryService()
        fresh.restore(snapshot)
        assert fresh.snapshot() == snapshot

    def test_restore_resumes_the_data_clock(self):
        # Every applied record refreshes its source's last_seen_ns, so a
        # restored service's watermark is the live one, not 0 (which
        # aged every vehicle by -8e9 ns and flagged both stale).
        generator = FleetLoadGenerator(FleetConfig(vehicles=2, frames=80))
        live = TelemetryService(
            ServiceConfig(store=generator.config.store_config())
        )
        run_load(live, generator)
        restored = TelemetryService()
        restored.restore(live.snapshot())
        assert restored.watermark_ns == live.watermark_ns > 0
        report = status_report(restored)
        assert report["vehicles"] == status_report(live)["vehicles"]
        assert report["stale_vehicles"] == 0


class TestQueueRules:
    def test_backpressure_raises_one_drop_alert(self):
        service = TelemetryService(ServiceConfig(queue_capacity=16))
        rows = FleetLoadGenerator(FleetConfig(vehicles=1, frames=20)).batch()
        for start in range(0, len(rows), 40):
            service.ingest_batch(rows[start:start + 40])
        assert service.dropped > 0
        service.poll(0)
        service.poll(0)
        # Episodic: one alert however many offers dropped, until the
        # next offer drops again.
        assert service.alert_log.count(RULE_QUEUE_DROPS) == 1
        service.ingest_batch(rows[:17])
        service.poll(0)
        assert service.alert_log.count(RULE_QUEUE_DROPS) == 2
        assert service.accounting_ok()
