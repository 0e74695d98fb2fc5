"""Differential oracle: span tracing must be observationally invisible.

Recording spans may not perturb the simulation in any observable way.
These tests run identical workloads with tracing ON and OFF and demand
byte-identical artifacts on every level: golden-trace digests of stack
runs, full fault-campaign scenario results (oracle verdicts, detections,
mode transitions, alert counts), telemetry-store snapshots from record
replay -- serially and through the 4-way multiprocessing fan-out.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.parallel import run_campaign_parallel
from repro.faults.campaign import CampaignConfig, FaultCampaign, default_scenarios
from repro.perception.stack import PerceptionStack, StackConfig
from _golden import GOLDEN_FRAMES, golden_scenarios, stack_fingerprint

#: Whole module exercises multi-second stack/campaign runs.
pytestmark = pytest.mark.slow

N_FRAMES = 16  # minimum the campaign config admits with default warmup/tail

SCENARIO_NAMES = [s.name for s in default_scenarios()]


def _campaign_scenario(name, spans):
    registry = {s.name: s for s in default_scenarios()}
    campaign = FaultCampaign(config=CampaignConfig(n_frames=N_FRAMES, spans=spans))
    return campaign.run_scenario(registry[name])


def _store_digest(stack, source, n_frames):
    """SHA-256 of the telemetry store state after replaying one run."""
    from repro.telemetry.replay import replay_stack_batch, stack_store_config
    from repro.telemetry.service import ServiceConfig, TelemetryService

    service = TelemetryService(ServiceConfig(store=stack_store_config(stack)))
    service.ingest_batch(replay_stack_batch(stack, source, n_frames))
    service.poll()
    canonical = json.dumps(service.snapshot(), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestGoldenScenarios:
    @pytest.mark.parametrize("name", sorted(golden_scenarios()))
    def test_fingerprints_and_store_digests_identical(self, name):
        factory = golden_scenarios()[name]
        off = factory()
        off.run(n_frames=GOLDEN_FRAMES)
        on = PerceptionStack(dataclasses.replace(off.config, spans=True))
        on.run(n_frames=GOLDEN_FRAMES)
        assert on.spans is not None and len(on.spans) > 0
        assert stack_fingerprint(on) == stack_fingerprint(off)
        assert _store_digest(on, name, GOLDEN_FRAMES) == _store_digest(
            off, name, GOLDEN_FRAMES
        )


class TestCampaignScenarios:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenario_results_identical(self, name):
        off = _campaign_scenario(name, spans=False)
        on = _campaign_scenario(name, spans=True)
        # Dataclass equality covers oracle verdicts, detections,
        # injections, mode transitions, watchdog rearms, alert counts
        # and telemetry record counts.
        assert on == off, f"scenario {name} diverged with spans enabled"


class TestParallelCampaign:
    def test_spans_on_j4_matches_spans_off_serial(self):
        subset = ["loss_burst", "clock_step", "cpu_overload", "silent_sensor"]
        serial_off = FaultCampaign(
            [s for s in default_scenarios() if s.name in subset],
            config=CampaignConfig(n_frames=N_FRAMES, spans=False),
        ).run()
        parallel_on = run_campaign_parallel(
            subset, config=CampaignConfig(n_frames=N_FRAMES, spans=True), jobs=4
        )
        assert serial_off.render_report() == parallel_on.render_report()
        for a, b in zip(serial_off.scenarios, parallel_on.scenarios):
            assert a == b, f"scenario {a.name} diverged (spans on, -j4)"
