"""The differential suite: production vs reference engines, byte for byte.

Every observable artifact the repo pins -- golden-trace fingerprints,
fault-campaign scenario payloads, executor-model dispatch logs,
gateway/adaptive chaos reports, telemetry store digests and alert logs
-- is produced twice: once by production (``stamped`` simulator heap, ``batched``
columnar telemetry ingest) and once with the oracles of
``tests/_reference/`` substituted in (``heap`` kernel, ``scalar``
per-record pump).  The canonical JSON serializations must match byte
for byte; see ``tests/_differential.py`` for the fixture layer.

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
from _reference.executor_schedule import consumer_executor, run_consumers
from _reference.heap_kernel import HeapSimulator
from _reference.scalar_store import pump_scalar

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
from repro.ros.executors import EXECUTOR_MODELS
from repro.sim import Simulator, msec
from repro.telemetry.batch import RecordBatch
from repro.telemetry.gateway import gateway_scenarios
from repro.telemetry.loadgen import FleetConfig, FleetLoadGenerator
from repro.telemetry.service import ServiceConfig, TelemetryService
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
            assert type(consumer_executor("single").sim) is HeapSimulator
        assert type(PerceptionStack(StackConfig()).sim) is Simulator
        assert type(PipelineWorld().sim) is Simulator
        assert type(consumer_executor("single").sim) is Simulator

    def test_telemetry_reference_swaps_the_pump(self):
        production = TelemetryService.pump
        with reference_engines(telemetry=True):
            assert TelemetryService.pump is pump_scalar
        assert TelemetryService.pump is production


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
    def run():
        result = FaultCampaign(
            config=CampaignConfig(n_frames=CAMPAIGN_FRAMES)
        ).run()
        return {
            s.name: dataclasses.asdict(s) for s in result.scenarios
        }

    return run_under_engine_corners(run)


class TestFaultCampaign:
    def test_matrix_is_complete(self, campaign_by_engine):
        expected = {s.name for s in fault_scenarios()}
        assert len(expected) == 11
        for engine, by_name in campaign_by_engine.items():
            assert set(by_name) == expected, engine

    @pytest.mark.parametrize("name", [s.name for s in fault_scenarios()])
    def test_scenario_payload_identical(self, campaign_by_engine, name):
        assert_identical(
            {e: r[name] for e, r in campaign_by_engine.items()},
            context=f"campaign:{name}",
        )


# ----------------------------------------------------------------------
# Executor models (simulator engine)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("model", sorted(EXECUTOR_MODELS))
def test_executor_dispatch_log_identical_across_sim_engines(model):
    # A planner overrun, then a runaway hog: every dispatch path of the
    # model (snapshot drain, group admission, priority pick) under load.
    def run():
        log = run_consumers(
            model, 24,
            plan_ns=lambda f: msec(96) if 6 <= f < 12 else msec(8),
            hog_ns=lambda f: msec(110) if 14 <= f < 20 else None,
        )
        return [dataclasses.astuple(d) for d in log]

    assert_identical(run_under_sim_engines(run), context=f"executor:{model}")


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

        assert_identical(run_under_engine_corners(run), context=f"gateway:{name}")


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

        assert_identical(
            run_under_telemetry_engines(run), context=f"adapt:{name}"
        )


# ----------------------------------------------------------------------
# Telemetry fleet stream: scalar pump vs batched pump vs columnar batch
# ----------------------------------------------------------------------
class TestTelemetryFleetStream:
    """One fleet record stream through every ingest path.

    Three runs must converge: per-record ingest drained by the scalar
    reference pump, per-record ingest drained by the production pump,
    and the native columnar ``ingest_batch`` fast path.  Store digest,
    alert log, and the conservation counters are all compared.
    """

    FLEET = FleetConfig(vehicles=4, frames=60)

    def _observables(self, service):
        digest = store_digest(service)  # pumps any pending records
        stats = service.stats()
        return {
            "digest": digest,
            "alerts": service.alert_log.to_jsonl(),
            "offered": stats["offered"],
            "applied": stats["applied"],
            "dropped": stats["dropped"],
            "violations": stats["violations"],
            "alerts_by_rule": stats["alerts_by_rule"],
            "accounting_ok": stats["accounting_ok"],
        }

    def _service(self):
        return TelemetryService(
            ServiceConfig(store=self.FLEET.store_config())
        )

    def _records(self):
        return FleetLoadGenerator(self.FLEET).materialize()

    def _pumped(self, records):
        service = self._service()
        service.ingest_many(records)
        return self._observables(service)

    def test_pump_engines_identical(self):
        records = self._records()
        assert_identical(
            run_under_telemetry_engines(lambda: self._pumped(records)),
            context="fleet:pump",
        )

    def test_columnar_batch_matches_scalar_reference(self):
        records = self._records()

        with reference_engines(telemetry=True):
            scalar = self._pumped(records)

        columnar = self._service()
        accepted = columnar.ingest_batch(RecordBatch.from_records(records))
        assert accepted == len(records)

        assert_identical(
            {"scalar": scalar, "columnar": self._observables(columnar)},
            context="fleet:columnar",
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
