"""The DAG fault campaign: per-path oracles, executor pairs, goldens.

The matrix is moderately expensive (9 fork/join pipeline runs), so it
executes once as a module-scoped fixture.  ``tests/golden/dag_campaign.json``
pins a digest of every scenario's observable behaviour (per-path miss
counts, (m,k) verdicts, detections, alert counts) at 24 frames, seed 17.

Regenerate (after an *intentional* behaviour change) with::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.faults.dag_scenarios import DagCampaign, DagCampaignConfig
    result = DagCampaign(config=DagCampaignConfig(n_frames=24)).run()
    print(json.dumps({
        "schema": "repro-dag-golden/1", "n_frames": 24, "seed": 17,
        "scenarios": {s.name: {"digest": s.digest(),
                               "payload": s.digest_payload()}
                      for s in result.scenarios}}, indent=2, sort_keys=True))
    PY
"""

import json
from pathlib import Path

import pytest

from repro.faults.dag_scenarios import (
    DagCampaign,
    DagCampaignConfig,
    default_dag_scenarios,
)

#: Whole module exercises multi-second pipeline/campaign runs.
pytestmark = pytest.mark.slow

N_FRAMES = 24
GOLDEN_FILE = Path(__file__).parent / "golden" / "dag_campaign.json"

PLAN_PATHS = ("s_cam>s_fuse_cam>s_xfer>s_plan", "s_lid>s_fuse_lid>s_xfer>s_plan")
VIZ_PATHS = ("s_cam>s_fuse_cam>s_xfer>s_viz", "s_lid>s_fuse_lid>s_xfer>s_viz")


@pytest.fixture(scope="module")
def campaign_result():
    return DagCampaign(config=DagCampaignConfig(n_frames=N_FRAMES)).run()


@pytest.fixture(scope="module")
def by_name(campaign_result):
    return {s.name: s for s in campaign_result.scenarios}


@pytest.fixture(scope="module")
def golden():
    data = json.loads(GOLDEN_FILE.read_text())
    assert data["schema"] == "repro-dag-golden/1"
    return data


class TestMatrixCoverage:
    def test_six_fault_classes_and_three_executor_models(self, campaign_result):
        classes = campaign_result.fault_classes_covered - {"baseline"}
        assert len(classes) >= 6
        assert campaign_result.executor_models_covered == {
            "single", "multi", "priority",
        }
        assert len(campaign_result.scenarios) >= 6

    def test_every_scenario_passes_both_oracles(self, campaign_result):
        for scenario in campaign_result.scenarios:
            detail = "\n".join(
                f"{f.subject}@{f.activation}: {f.detail}"
                for f in (scenario.soundness.failures
                          + scenario.completeness.failures)[:5]
            )
            assert scenario.soundness.passed, f"{scenario.name}:\n{detail}"
            assert scenario.completeness.passed, f"{scenario.name}:\n{detail}"
        assert campaign_result.passed

    def test_fault_scenarios_inject(self, by_name):
        for name, scenario in by_name.items():
            if scenario.fault_classes == ("baseline",):
                assert scenario.injections == 0
            else:
                assert scenario.injections > 0, name

    def test_oracles_check_real_violations_where_expected(self, by_name):
        # Completeness checked > 0 means ground-truth violations existed
        # and every one was reported (the oracle is not vacuous).
        for name in (
            "dag_loss_burst_single", "dag_latency_spike_single",
            "dag_cpu_overload_single", "dag_executor_stall_single",
            "dag_silent_sensor_multi",
        ):
            assert by_name[name].completeness.checked > 0, name
            assert by_name[name].detections > 0, name

    def test_baseline_is_clean(self, by_name):
        baseline = by_name["dag_baseline_single"]
        assert baseline.detections == 0
        assert baseline.violated_paths == []
        assert all(
            report["misses"] == 0
            for report in baseline.path_reports.values()
        )


class TestExecutorModelDiscrimination:
    """The same fault under different executors gives different verdicts
    -- the reason the executor model is a scenario parameter at all."""

    def test_single_threaded_overload_starves_viz_path(self, by_name):
        single = by_name["dag_cpu_overload_single"]
        for path in VIZ_PATHS:
            assert single.path_reports[path]["misses"] > 0, (
                "polling-point head-of-line blocking should delay viz"
            )

    def test_multi_threaded_overload_isolates_viz_path(self, by_name):
        multi = by_name["dag_cpu_overload_multi"]
        for path in VIZ_PATHS:
            assert multi.path_reports[path]["misses"] == 0, (
                "reentrant group should isolate viz from the planner"
            )
        for path in PLAN_PATHS:
            assert multi.path_reports[path]["misses"] > 0

    def test_priority_dispatch_rescues_stalled_sinks(self, by_name):
        stalled = by_name["dag_executor_stall_single"]
        rescued = by_name["dag_executor_stall_priority"]
        assert stalled.detections > 0
        assert rescued.detections == 0
        assert rescued.violated_paths == []


class TestPerPathVerdicts:
    def test_loss_burst_violates_all_paths(self, by_name):
        scenario = by_name["dag_loss_burst_single"]
        assert sorted(scenario.violated_paths) == sorted(
            PLAN_PATHS + VIZ_PATHS
        )
        for report in scenario.path_reports.values():
            assert report["mk_satisfied"] == 0
            assert report["max_window_misses"] > 2  # (2,8) exceeded

    def test_per_path_reports_cover_all_four_paths(self, campaign_result):
        for scenario in campaign_result.scenarios:
            assert set(scenario.path_reports) == set(PLAN_PATHS + VIZ_PATHS)

    def test_telemetry_replay_alert_parity(self, campaign_result):
        # Replayed per-path chain records drive the fleet store's
        # automata: scenarios with (m,k)-violated paths must raise
        # alerts, the clean baseline stays near-silent.
        for scenario in campaign_result.scenarios:
            assert scenario.telemetry_records > 0
            if scenario.violated_paths:
                assert sum(scenario.alert_counts.values()) > 0, scenario.name

    def test_lossless_replay_raises_no_alert(self, by_name):
        # Nothing is lost between the run and the store, so the replayed
        # seqs have no gap: the clean baseline raises nothing at all.
        assert by_name["dag_baseline_single"].alert_counts == {}


class TestGoldenDigests:
    def test_golden_file_covers_matrix(self, golden):
        assert set(golden["scenarios"]) == {
            s.name for s in default_dag_scenarios()
        }
        assert golden["n_frames"] == N_FRAMES

    def test_digests_match_golden(self, campaign_result, golden):
        assert golden["n_frames"] == N_FRAMES
        for scenario in campaign_result.scenarios:
            entry = golden["scenarios"][scenario.name]
            assert scenario.digest_payload() == entry["payload"], (
                f"{scenario.name}: DAG campaign behaviour diverged from "
                "the golden pin"
            )
            assert scenario.digest() == entry["digest"], scenario.name


class TestDeterminism:
    def test_rerun_scenario_digest_identical(self):
        scenario = default_dag_scenarios()[1]  # loss burst
        config = DagCampaignConfig(n_frames=N_FRAMES)

        def digest():
            return DagCampaign([scenario], config).run().scenarios[0].digest()

        assert digest() == digest()


class TestConfigValidation:
    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            DagCampaignConfig(n_frames=8)

    def test_unknown_executor_model_rejected(self):
        from repro.faults.dag_stack import DagStack, DagStackConfig

        with pytest.raises(ValueError, match="unknown executor model"):
            DagStack(DagStackConfig(executor_model="fifo"))


def test_render_report_mentions_verdict(campaign_result):
    report = campaign_result.render_report()
    assert "dag campaign: PASS" in report
    for scenario in campaign_result.scenarios:
        assert scenario.name in report
