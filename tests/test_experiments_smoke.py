"""Smoke tests for the experiment drivers (small scales).

The full shape assertions live in benchmarks/; these tests pin the
structural contract of each driver so refactors fail fast.
"""

import pytest

from repro.core import Outcome
from repro.sim import msec, usec


class TestFig02:
    def test_structure(self):
        from repro.experiments.fig02_event_sequence import run_fig02

        result = run_fig02(n_frames=20)
        assert set(result.segment_stats) >= {"s0_front", "s2", "s3_objects"}
        assert len(result.e2e_front_objects) == len(result.composed_front_objects)
        assert result.e2e_front_objects == result.composed_front_objects


class TestFig03:
    def test_paper_sequence(self):
        from repro.experiments.fig03_error_case import run_fig03

        result = run_fig03(n_frames=18)
        assert result.faulty["s1_front"].outcome is Outcome.RECOVERED
        assert result.faulty["s2"].outcome is Outcome.MISS
        assert result.faulty["s3_objects"].outcome is Outcome.SKIPPED
        assert all(r.outcome is Outcome.OK for r in result.clean.values())


class TestFig06:
    def test_scores_structure(self):
        from repro.experiments.fig06_interarrival import run_fig06

        result = run_fig06(n_frames=60)
        assert set(result.scores) == {
            "accumulating lateness", "consecutive misses", "benign jitter"
        }
        for monitors in result.scores.values():
            assert set(monitors) == {"inter-arrival", "sync-based"}

    def test_sync_dominates_interarrival(self):
        from repro.experiments.fig06_interarrival import run_fig06

        result = run_fig06(n_frames=60)
        for scenario, monitors in result.scores.items():
            assert (
                monitors["sync-based"].missed <= monitors["inter-arrival"].missed
            ), scenario
            assert monitors["sync-based"].false_positives == 0, scenario


class TestFig09:
    pytestmark = pytest.mark.slow

    def test_small_run(self):
        from repro.experiments.fig09_segment_latencies import run_fig09

        result = run_fig09(n_frames=60)
        for name in ("s3_objects", "s3_ground"):
            assert len(result.monitored[name]) >= 58
            assert max(result.monitored[name]) <= result.deadline + msec(1)


class TestFig10:
    pytestmark = pytest.mark.slow

    def test_exception_cases_only(self):
        from repro.experiments.fig10_exception_latencies import run_fig10

        result = run_fig10(n_frames=80)
        for name, latencies in result.exception_latencies.items():
            assert len(latencies) == len(result.overshoots[name])
            for latency in latencies:
                assert latency >= result.deadline


class TestFig11:
    def test_real_measurement(self):
        from repro.experiments.fig11_overheads import run_fig11

        result = run_fig11(n_events=200)
        assert len(result.start_overheads) == 200
        assert len(result.end_overheads) == 200
        assert result.monitor_latencies
        assert all(v > 0 for v in result.start_overheads)


class TestFig12:
    def test_both_contexts_measured(self):
        from repro.experiments.fig12_remote_entry import run_fig12

        result = run_fig12(n_periods=90)
        assert len(result.entry_latencies) == 2
        for label, samples in result.entry_latencies.items():
            assert samples, label
            assert all(v >= 0 for v in samples)


class TestRunnerCli:
    def test_cli_single_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["fig03"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert "recovered" in out

    def test_cli_rejects_unknown(self):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["fig99"])

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_cli_rejects_fewer_than_one_job(self, jobs, capsys):
        # It used to run the experiment serially without a word.
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as exit_info:
            main(["-j", jobs, "fig02"])
        assert exit_info.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
