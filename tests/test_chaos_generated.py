"""Generated adversaries for the one episode driver (Hypothesis).

The scripted sweeps pin 26 hand-written fault x crash schedules; here
Hypothesis composes them -- a fault plan per channel direction, up to
three crashes on either side at any step, a seed -- and every check the
driver makes (convergence, the ledger laws, digest and cold-recovery
equivalence, the epoch invariant) must hold for each, through all three
role sets of :class:`ChaosDriver`.  ``derandomize`` fixes the examples,
so a failure here is a schedule to copy into a named regression (the
two found so far are the last two tests of ``TestScenarios`` in
``test_adaptive_chaos.py``).
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.adaptive.chaos import AdaptConfig, AdaptScenario
from repro.telemetry.gateway.chaos import GatewayChaosScenario
from repro.telemetry.uplink.chaos import (
    ChaosConfig,
    ChaosScenario,
    CrashEvent,
)
from repro.telemetry.uplink.transport import ChannelFaultPlan

PROBABILITY = st.sampled_from([0.0, 0.05, 0.15, 0.3])
SEED = st.integers(0, 2 ** 16)


@st.composite
def fault_plans(draw, horizon):
    start = draw(st.none() | st.integers(0, horizon))
    return ChannelFaultPlan(
        drop_prob=draw(PROBABILITY), dup_prob=draw(PROBABILITY),
        reorder_prob=draw(PROBABILITY), corrupt_prob=draw(PROBABILITY),
        partitions=() if start is None else (
            (start, start + draw(st.integers(1, 30))),
        ),
    )


def crash_schedules(horizon, vehicles):
    return st.lists(
        st.builds(
            CrashEvent,
            step=st.integers(0, horizon),
            side=st.sampled_from(["vehicle", "server"]),
            vehicle=st.integers(0, vehicles - 1),
            down_for=st.integers(1, 12),
            torn_tail=st.booleans(),
        ),
        max_size=3,
    ).map(tuple)


def assert_every_check_holds(scenario, config):
    with tempfile.TemporaryDirectory() as tmp:
        result = scenario.make_driver(config, Path(tmp)).run()
    assert result.ok, (
        scenario, [check for check in result.checks if not check["ok"]]
    )


@settings(max_examples=70, deadline=None, derandomize=True)
@given(
    scenario_class=st.sampled_from([ChaosScenario, GatewayChaosScenario]),
    up=fault_plans(40), down=fault_plans(40),
    crashes=crash_schedules(40, vehicles=2), seed=SEED,
)
def test_uplink_and_gateway_laws_hold_for_generated_schedules(
    scenario_class, up, down, crashes, seed
):
    assert_every_check_holds(
        scenario_class(name="generated", up=up, down=down, crashes=crashes),
        ChaosConfig(vehicles=2, frames=24, seed=seed),
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    up=fault_plans(110), down=fault_plans(110),
    crashes=crash_schedules(110, vehicles=3),
    crash_on_recv=st.none() | st.integers(0, 2), seed=SEED,
)
def test_adaptive_laws_hold_for_generated_schedules(
    up, down, crashes, crash_on_recv, seed
):
    assert_every_check_holds(
        AdaptScenario(
            name="generated", up=up, down=down, crashes=crashes,
            drift=((40, 10 ** 9, 1.5, ""),), crash_on_recv=crash_on_recv,
        ),
        AdaptConfig(frames=96, seed=seed),
    )
