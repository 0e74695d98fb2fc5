"""End-to-end adapt chaos scenarios (the ``python -m repro adapt`` sweep;
its CLI is tested with the uplink sweep's in ``test_uplink_chaos.py``)."""

from repro.adaptive.chaos import (
    AdaptConfig,
    AdaptScenario,
    default_scenarios,
    run_adapt,
)
from repro.telemetry.uplink.chaos import CrashEvent

QUICK = AdaptConfig(frames=96)


def run_named(*names, config=QUICK):
    by_name = {s.name: s for s in default_scenarios()}
    report = run_adapt(config, [by_name[name] for name in names])
    return report["scenarios"]


def checks_of(doc):
    return {c["name"]: c["ok"] for c in doc["checks"]}


class TestScenarios:
    def test_happy_loop_promotes_a_rederived_epoch(self):
        (doc,) = run_named("adapt_baseline")
        assert doc["ok"], doc["checks"]
        checks = checks_of(doc)
        assert checks["promotion"]
        assert checks["epoch_invariant"]
        assert checks["epoch_convergence"]

    def test_seeded_bad_candidate_is_rejected_and_never_distributed(self):
        (doc,) = run_named("shadow_reject")
        assert doc["ok"], doc["checks"]
        checks = checks_of(doc)
        assert checks["rejected"]
        assert checks["rejected_never_distributed"]

    def test_canary_regression_rolls_the_fleet_back(self):
        (doc,) = run_named("canary_rollback")
        assert doc["ok"], doc["checks"]
        assert checks_of(doc)["rollback"]
        assert doc["epochs"]["ledger"]["rollbacks"], \
            "ledger must record the rollback"

    def test_crash_mid_apply_recovers_exactly_once(self):
        (doc,) = run_named("vehicle_crash_mid_apply")
        assert doc["ok"], doc["checks"]
        checks = checks_of(doc)
        assert checks["pending_recovery"]
        assert checks["epoch_ledger"]

    def test_torn_tail_vehicle_crash_reports_truncated_lines(self):
        # vehicle-001 dies mid-append (torn_tail=True at step 30): the
        # spool recovery must be counted, as the uplink sweep counts it,
        # while the cleanly killed vehicle-000 reports no such key.
        (doc,) = run_named("vehicle_crash_mid_apply")
        vehicles = doc["recoveries"]["vehicles"]
        assert vehicles["vehicle-001"]["truncated_lines"] >= 1
        assert "truncated_lines" not in vehicles["vehicle-000"]
        assert checks_of(doc)["uplink_ledger"]

    def test_degraded_vehicle_defers_then_applies(self):
        (doc,) = run_named("deferred_apply")
        assert doc["ok"], doc["checks"]
        checks = checks_of(doc)
        assert checks["deferral"]
        assert checks["promotion"]

    def test_every_scenario_has_distinct_coverage(self):
        scenarios = default_scenarios()
        names = [s.name for s in scenarios]
        assert len(names) == len(set(names))
        assert len(scenarios) >= 10

    def test_torn_tail_after_the_last_activation_is_respooled(self):
        """Found by the generated schedules: the kill tears a record of
        the final activation, and the recovered vehicle -- with nothing
        left to generate -- must still re-spool it, or ``drained`` stays
        false and the run burns every step."""
        scenario = AdaptScenario(
            name="torn_tail_at_the_end",
            drift=((40, 10 ** 9, 1.5, ""),),
            crashes=(
                CrashEvent(step=96, side="vehicle", vehicle=0, down_for=1,
                           torn_tail=True),
            ),
        )
        (doc,) = run_adapt(AdaptConfig(frames=96, seed=0), [scenario])[
            "scenarios"
        ]
        assert doc["ok"], [c for c in doc["checks"] if not c["ok"]]
        torn = doc["recoveries"]["vehicles"]["vehicle-000"]
        assert torn["truncated_lines"] == 1

    def test_vehicle_killed_before_its_first_epoch_keeps_the_baseline(self):
        """Also found by the generated schedules: vehicle-000 dies at
        step 2 with an empty epoch WAL, and the server crash keeps the
        run from ever promoting an epoch -- the fleet's last-good stays
        the factory baseline, which the recovered vehicle must still be
        running (it came back with no active epoch at all)."""
        scenario = AdaptScenario(
            name="killed_on_the_baseline",
            drift=((40, 10 ** 9, 1.5, ""),),
            crashes=(
                CrashEvent(step=2, side="vehicle", vehicle=0, down_for=1),
                CrashEvent(step=28, side="server", down_for=12),
            ),
        )
        (doc,) = run_adapt(AdaptConfig(frames=96, seed=20000), [scenario])[
            "scenarios"
        ]
        assert doc["ok"], [c for c in doc["checks"] if not c["ok"]]
        assert doc["epochs"]["last_good"] == 0
        assert doc["vehicles"]["vehicle-000"]["active"] == 0
