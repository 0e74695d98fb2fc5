"""The 26 chaos reports are frozen across durability-path changes.

``tests/golden/chaos_reports.json`` pins a sha256 of every scenario
report of the three chaos sweeps -- uplink (10), gateway (6), adaptive
(10), which between them kill vehicles (clean and with torn WAL tails)
and servers, and so drive ack-mark, checkpoint and ingest-log recovery
-- as recorded *before* the ack mark became an appended journal and the
checkpoint a single C-encoded write.  A change to how a durability
point is written must not move one byte of what a scenario reports:
counters, ledgers, convergence step, store digests, recovery stats.
(The ten adaptive entries were re-pinned once since, when the adaptive
vehicles moved from the stop-and-wait client onto the windowed one:
same checks, same verdicts, different retransmit timing.)

Regenerate (after an *intentional* change to modelled behaviour) with::

    PYTHONPATH=src:tests python -c "
    import json, test_uplink_durability_differential as t
    print(json.dumps(dict(t.HEADER, scenarios=t.report_digests()),
                     indent=2, sort_keys=True))"
"""

import hashlib
import json
from pathlib import Path

import pytest

from _differential import canonical

from repro.adaptive.chaos import AdaptConfig, run_adapt
from repro.adaptive.chaos import default_scenarios as adaptive_scenarios
from repro.telemetry.gateway import gateway_scenarios
from repro.telemetry.uplink.chaos import (
    ChaosConfig,
    default_scenarios,
    run_chaos,
)

GOLDEN_FILE = Path(__file__).parent / "golden" / "chaos_reports.json"

#: 24 frames keep every vehicle's spool busy at each crash point (the
#: torn-tail kill needs a pending record to tear).
UPLINK = {"vehicles": 2, "frames": 24}
ADAPTIVE = {"frames": 96}
HEADER = {
    "schema": "repro-chaos-golden/1", "uplink": UPLINK, "adaptive": ADAPTIVE,
}


def report_digests(workdir=None) -> dict:
    """``{scenario name: sha256 of its canonical report}``, all sweeps."""
    reports = run_chaos(
        ChaosConfig(**UPLINK), default_scenarios() + gateway_scenarios(),
        workdir=workdir,
    )["scenarios"]
    reports += run_adapt(
        AdaptConfig(**ADAPTIVE), adaptive_scenarios()
    )["scenarios"]
    return {
        report["name"]: hashlib.sha256(
            canonical(report).encode("utf-8")
        ).hexdigest()
        for report in reports
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    data = json.loads(GOLDEN_FILE.read_text())
    assert {key: data[key] for key in HEADER} == HEADER
    return data["scenarios"]


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict:
    return report_digests(tmp_path_factory.mktemp("chaos"))


def test_golden_covers_every_scenario_of_the_three_sweeps(golden):
    names = [
        scenario.name for scenario in
        default_scenarios() + gateway_scenarios() + adaptive_scenarios()
    ]
    assert len(names) == len(set(names)) == 26
    assert set(golden) == set(names)


def test_crash_scenarios_exercise_vehicle_and_server_recovery():
    crashes = [
        event for scenario in
        default_scenarios() + gateway_scenarios() + adaptive_scenarios()
        for event in scenario.crashes
    ]
    assert any(e.side == "vehicle" and e.torn_tail for e in crashes)
    assert any(e.side == "vehicle" and not e.torn_tail for e in crashes)
    assert any(e.side == "server" for e in crashes)


@pytest.mark.parametrize("name", sorted(
    scenario.name for scenario in
    default_scenarios() + gateway_scenarios() + adaptive_scenarios()
))
def test_report_is_byte_identical_to_the_pinned_one(name, golden, digests):
    assert digests[name] == golden[name], (
        f"{name}: the scenario report moved -- a durability-path change "
        "altered modelled behaviour (counters, ledger, digests or "
        "recovery stats), not just how the bytes reach the disk"
    )
