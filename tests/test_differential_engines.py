"""The differential suite: production vs reference engines, byte for byte.

Every observable artifact the repo pins -- golden-trace fingerprints,
fault-campaign scenario payloads, gateway/adaptive chaos reports,
telemetry store digests and alert logs -- is produced twice: once by
production (``stamped`` simulator heap, ``batched`` one-pass row fold)
and once with the oracles of
``tests/_reference/`` substituted in (``heap`` kernel, ``scalar``
per-record fold).  The canonical JSON serializations must match byte
for byte; see ``tests/_differential.py`` for the fixture layer.  Every
telemetry differential also counts the records the scalar fold
processed, so none can pass by comparing production with itself.

The expensive matrix (11 fault scenarios) runs once per engine as a
module-scoped fixture and is compared per scenario, so a divergence
names the exact scenario rather than "the campaign".
"""

import dataclasses
import tempfile
from pathlib import Path

import pytest

from _differential import (
    SIM_ENGINES,
    assert_identical,
    reference_engines,
    run_under_engine_corners,
    run_under_sim_engines,
    run_under_telemetry_engines,
)
from _reference import scalar_store
from _reference.heap_kernel import HeapSimulator

from repro.adaptive.chaos import (
    AdaptConfig,
    default_scenarios as adapt_scenarios,
    run_adapt,
)
from repro.faults.campaign import (
    CampaignConfig,
    FaultCampaign,
    default_scenarios as fault_scenarios,
)
from repro.sim import Simulator
from repro.telemetry.gateway import gateway_scenarios
from repro.telemetry.loadgen import FleetConfig, FleetLoadGenerator
from repro.telemetry.service import ServiceConfig, TelemetryService
from repro.telemetry.store import ChainStateStore
from repro.telemetry.uplink.chaos import ChaosConfig
from repro.telemetry.uplink.ingest import store_digest
from _golden import GOLDEN_FRAMES, golden_scenarios, stack_fingerprint

#: Whole module re-runs stacks and campaigns under multiple engines.
pytestmark = pytest.mark.slow

CAMPAIGN_FRAMES = 24
GATEWAY_QUICK = ChaosConfig(vehicles=3, frames=10, seed=2025)
ADAPT_QUICK = AdaptConfig(frames=96)


class TestReferenceSubstitution:
    """The substitution really swaps engines (otherwise the whole suite
    would vacuously compare production against itself) and really
    restores production afterwards."""

    def test_sim_reference_swaps_kernel_and_timeout_queue(self):
        from _harness import PipelineWorld
        from repro.perception.stack import PerceptionStack, StackConfig

        with reference_engines(sim=True):
            assert type(PerceptionStack(StackConfig()).sim) is HeapSimulator
            assert type(PipelineWorld().sim) is HeapSimulator
        assert type(PerceptionStack(StackConfig()).sim) is Simulator
        assert type(PipelineWorld().sim) is Simulator

    def test_telemetry_reference_folds_records(self, tmp_path):
        production = ChainStateStore.apply_batch
        gateway = gateway_scenarios()[0].make_driver(GATEWAY_QUICK, tmp_path)
        campaign = FaultCampaign(
            [s for s in fault_scenarios() if s.name == "loss_burst"],
            CampaignConfig(n_frames=CAMPAIGN_FRAMES),
        )
        with reference_engines(telemetry=True):
            scalar_fold = ChainStateStore.apply_batch
            assert scalar_fold is scalar_store.apply_batch_scalar
            start = scalar_store.folded
            gateway.run()
            mid = scalar_store.folded
            campaign.run()
            end = scalar_store.folded
        assert ChainStateStore.apply_batch is production
        assert mid - start > 0 and end - mid > 0


# ----------------------------------------------------------------------
# Golden traces (simulator engine)
# ----------------------------------------------------------------------
class TestGoldenTraces:
    @pytest.mark.parametrize("name", sorted(golden_scenarios()))
    def test_fingerprint_identical_across_sim_engines(self, name):
        def run():
            stack = golden_scenarios()[name]()
            stack.run(n_frames=GOLDEN_FRAMES)
            return stack_fingerprint(stack)

        assert_identical(run_under_sim_engines(run), context=f"golden:{name}")


# ----------------------------------------------------------------------
# Fault campaign: all 11 scenarios (both references at once)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def campaign_by_engine():
    """Per engine: every scenario's payload and the records the scalar
    fold processed while it ran."""
    def run():
        campaign = FaultCampaign(
            config=CampaignConfig(n_frames=CAMPAIGN_FRAMES)
        )
        payloads, folded = {}, {}
        for scenario in campaign.scenarios:
            start = scalar_store.folded
            payloads[scenario.name] = dataclasses.asdict(
                campaign.run_scenario(scenario)
            )
            folded[scenario.name] = scalar_store.folded - start
        return payloads, folded

    return run_under_engine_corners(run)


class TestFaultCampaign:
    def test_matrix_is_complete(self, campaign_by_engine):
        expected = {s.name for s in fault_scenarios()}
        assert len(expected) == 11
        for engine, (by_name, _folded) in campaign_by_engine.items():
            assert set(by_name) == expected, engine

    @pytest.mark.parametrize("name", [s.name for s in fault_scenarios()])
    def test_scenario_payload_identical(self, campaign_by_engine, name):
        assert_identical(
            {e: r[0][name] for e, r in campaign_by_engine.items()},
            context=f"campaign:{name}",
        )
        folded = {e: r[1][name] for e, r in campaign_by_engine.items()}
        assert folded["stamped+batched"] == 0 < folded["heap+scalar"]


# ----------------------------------------------------------------------
# Gateway chaos (both references; the drivers own a step clock, so
# only the telemetry one bites)
# ----------------------------------------------------------------------
class TestGatewayChaos:
    @pytest.mark.parametrize("name", [s.name for s in gateway_scenarios()])
    def test_report_identical_across_engines(self, name):
        def run():
            scenario = {s.name: s for s in gateway_scenarios()}[name]
            with tempfile.TemporaryDirectory() as tmp:
                return scenario.make_driver(GATEWAY_QUICK, Path(tmp)).run().to_json()

        start = scalar_store.folded
        results = run_under_engine_corners(run)
        assert scalar_store.folded > start
        assert_identical(results, context=f"gateway:{name}")


# ----------------------------------------------------------------------
# Adaptive chaos (telemetry engine: the control plane embeds a
# TelemetryService; the sweep never touches the simulator)
# ----------------------------------------------------------------------
class TestAdaptiveChaos:
    @pytest.mark.parametrize("name", ["adapt_baseline", "canary_rollback"])
    def test_report_identical_across_telemetry_engines(self, name):
        by_name = {s.name: s for s in adapt_scenarios()}

        def run():
            report = run_adapt(ADAPT_QUICK, [by_name[name]])
            return report["scenarios"]

        start = scalar_store.folded
        results = run_under_telemetry_engines(run)
        assert scalar_store.folded > start
        assert_identical(results, context=f"adapt:{name}")


# ----------------------------------------------------------------------
# Telemetry fleet stream: the one-pass row fold vs the scalar fold
# ----------------------------------------------------------------------
class TestTelemetryFleetStream:
    """One fleet record stream through the production fold and the
    scalar reference: store digest, alert log and the conservation
    counters must match, however the stream is cut into batches."""

    FLEET = FleetConfig(vehicles=4, frames=60)

    def _observables(self, service):
        stats = service.stats()
        return {
            "digest": store_digest(service),
            "alerts": service.alert_log.to_jsonl(),
            "offered": stats["offered"],
            "applied": stats["applied"],
            "dropped": stats["dropped"],
            "violations": stats["violations"],
            "alerts_by_rule": stats["alerts_by_rule"],
            "accounting_ok": stats["accounting_ok"],
        }

    def _ingested(self, rows, slice_size):
        service = TelemetryService(
            ServiceConfig(store=self.FLEET.store_config())
        )
        for start in range(0, len(rows), slice_size):
            service.ingest_batch(rows[start:start + slice_size])
        service.poll()
        return self._observables(service)

    def test_columnar_batch_matches_scalar_reference(self):
        rows = FleetLoadGenerator(self.FLEET).batch()
        start = scalar_store.folded
        results = run_under_telemetry_engines(
            lambda: self._ingested(rows, len(rows))
        )
        assert scalar_store.folded - start == len(rows) > 0
        assert_identical(results, context="fleet:rows")

    def test_sliced_batches_match_scalar_reference(self):
        # 97-record slices cut keys, (m,k) windows and latency windows
        # mid-stream on the production side; the scalar fold takes the
        # stream whole.
        rows = FleetLoadGenerator(self.FLEET).batch()
        sliced = self._ingested(rows, 97)
        with reference_engines(telemetry=True):
            scalar = self._ingested(rows, len(rows))
        assert_identical(
            {"sliced": sliced, "scalar": scalar}, context="fleet:sliced"
        )


# ----------------------------------------------------------------------
# ChainReport stream (simulator engine, monitor timeout queue included)
# ----------------------------------------------------------------------
class TestChainReportStream:
    @pytest.mark.parametrize(
        "worker_ms, frames",
        [(5, 12), (50, 8)],  # all-OK vs deadline-miss heavy
        ids=["on_time", "late"],
    )
    def test_reports_identical_across_sim_engines(self, worker_ms, frames):
        from _harness import PipelineWorld
        from repro.sim import msec

        def run():
            world = PipelineWorld(
                worker_time=lambda i: msec(worker_ms), d_mon=msec(20)
            )
            world.publish_frames(frames)
            world.run(until=msec(200 * frames))
            report = world.chain_runtime.finalize()
            return {
                "engine": type(world.sim).__name__,
                "report": dataclasses.asdict(report),
                "latencies": world.runtime.latencies,
                "exceptions": world.runtime.exceptions,
            }

        results = run_under_sim_engines(run)
        # The kernel class is the substitution itself -- normalize it
        # out after checking it took effect.
        kernels = {e: r.pop("engine") for e, r in results.items()}
        assert kernels == dict(
            zip(SIM_ENGINES, ("Simulator", "HeapSimulator"))
        )
        assert_identical(results, context=f"chain_report:{worker_ms}ms")
