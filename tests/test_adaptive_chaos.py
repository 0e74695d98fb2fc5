"""End-to-end adapt chaos scenarios (the ``python -m repro adapt`` sweep)."""

import json

import pytest

from repro.adaptive.chaos import (
    AdaptConfig,
    default_scenarios,
    main as adapt_main,
    run_adapt,
)

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


class TestCli:
    def test_quick_sweep_writes_a_passing_report(self, tmp_path, capsys):
        report_path = tmp_path / "adapt.json"
        code = adapt_main([
            "--quick", "--scenario", "adapt_baseline",
            "--scenario", "epoch_frame_lost",
            "--report", str(report_path), "--dir", str(tmp_path / "work"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro-adapt-report/1"
        assert report["ok"]
        assert [s["name"] for s in report["scenarios"]] == [
            "adapt_baseline", "epoch_frame_lost"
        ]

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            adapt_main(["--scenario", "no-such-scenario"])

    def test_list_prints_scenarios(self, capsys):
        assert adapt_main(["--list"]) == 0
        out = capsys.readouterr().out
        for scenario in default_scenarios():
            assert scenario.name in out
