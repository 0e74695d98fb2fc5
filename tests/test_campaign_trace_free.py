"""The fault campaign runs with no trace point armed, and loses nothing.

``FaultCampaign.run_scenario`` builds its stack with
``trace_prefixes=()``: verdicts come from ground truth and monitor
records, never from the stack's ``Tracer``.  That is only sound if the
tracer is observation-only, so every default scenario runs twice here
-- as the campaign builds it, and with the stack's default trace
prefixes put back through ``config_overrides`` -- and must produce the
same ``ScenarioResult`` and the same stack, event for event.

The campaign's telemetry replay is columnar
(``replay_stack_batch``); the ``TelemetryEmitter`` loop it replaced is
the oracle (``_reference/emitter_replay.py``): same records, same
order, same sequence numbers, same timestamps.
"""

import dataclasses

import pytest

from _reference.emitter_replay import replay_stack_records as emitter_replay
from repro.faults import CampaignConfig, FaultCampaign, default_scenarios
from repro.faults.base import FaultInjector
from repro.faults.degradation import GracefulDegradationManager
from repro.perception.scenario import ScenarioConfig
from repro.perception.stack import PerceptionStack, StackConfig
from repro.telemetry.records import KIND
from repro.telemetry.replay import replay_stack_batch

pytestmark = pytest.mark.slow

N_FRAMES = 40
SPARSE = ScenarioConfig(
    seed=1, ground_rings=2, points_per_ring=24, max_objects=1,
    points_per_object_mean=10,
)


class _StackTap(FaultInjector):
    """Injects nothing; keeps the stack the campaign built."""

    stack = None

    def _arm(self, stack) -> None:
        self.stack = stack


def _fingerprint(stack) -> dict:
    sources = {**stack.local_runtimes, **stack.remote_monitors}
    return {
        "chains": {
            name: {
                n: sorted(
                    (seg, rec.outcome, rec.latency, rec.detection_latency)
                    for seg, rec in per_segment.items()
                )
                for n, per_segment in runtime.records.items()
            }
            for name, runtime in stack.chain_runtimes.items()
        },
        "exceptions": {
            name: [
                (exc.activation, exc.deadline, exc.raised_at)
                for exc in source.exceptions
            ]
            for name, source in sources.items()
        },
        "latencies": {
            name: list(source.latencies) for name, source in sources.items()
        },
        "arrivals": {
            topic: list(rows) for topic, rows in stack.sink.arrivals.items()
        },
        "sim_now": stack.sim.now,
    }


def _run(scenario, **overrides):
    tap = _StackTap()
    build = scenario.build
    scenario = dataclasses.replace(
        scenario,
        build=lambda n: [*build(n), tap],
        config_overrides={
            **scenario.config_overrides, "scenario": SPARSE, **overrides,
        },
    )
    campaign = FaultCampaign(
        [scenario], CampaignConfig(n_frames=N_FRAMES, seed=1)
    )
    return campaign.run_scenario(scenario), tap.stack


@pytest.mark.parametrize(
    "scenario", default_scenarios(), ids=lambda scenario: scenario.name
)
def test_tracing_a_campaign_changes_nothing(scenario):
    result, stack = _run(scenario)
    traced_result, traced = _run(
        scenario, trace_prefixes=StackConfig().trace_prefixes
    )
    # The comparison is not vacuous: one run armed no trace point, the
    # other buffered events at every default prefix.
    assert not stack.sim.tracing_active and stack.tracer.recorded == 0
    assert traced.sim.tracing_active and traced.tracer.recorded > 0
    assert dataclasses.asdict(result) == dataclasses.asdict(traced_result)
    assert _fingerprint(stack) == _fingerprint(traced)


def test_columnar_replay_equals_the_emitter_driven_replay():
    scenario = next(
        s for s in default_scenarios() if s.name == "executor_stall"
    )
    stack = PerceptionStack(StackConfig(seed=1, scenario=SPARSE))
    for injector in scenario.build(N_FRAMES):
        injector.arm(stack)
    manager = GracefulDegradationManager(stack)
    manager.start(N_FRAMES)
    stack.run(n_frames=N_FRAMES)
    for runtime in stack.chain_runtimes.values():
        runtime.advance_window(N_FRAMES - 1)

    rows = replay_stack_batch(stack, "vehicle", N_FRAMES, manager=manager)
    expected = list(emitter_replay(stack, "vehicle", N_FRAMES, manager))
    # A faulted run with a manager: all three record kinds are present.
    assert {row[KIND] for row in expected} == {"segment", "chain", "mode"}
    assert rows == expected
    # No manager: the stream simply ends after the chain verdicts.
    assert replay_stack_batch(stack, "vehicle", N_FRAMES) == list(
        emitter_replay(stack, "vehicle", N_FRAMES)
    )
