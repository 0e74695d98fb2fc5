"""Benchmark harness smoke tests: schema, persistence, regression compare.

The full suites run in CI's dedicated bench job; here we keep runtime
low by exercising the kernel suite in quick mode and driving the
comparison logic (both the pass and the fail direction) on synthetic
suite files and on a tiny stubbed suite through the real CLI.
"""

import json

import pytest

from repro.bench import cli as bench_cli
from repro.bench.harness import (
    SCHEMA,
    compare_suites,
    load_suite,
    run_bench,
    suite_to_json,
    validate_suite,
    write_suite,
)
from repro.bench.suites import SUITES, run_suite


def synthetic_suite(medians, reference_ns=1000):
    """A valid suite dict with the given name -> median_ns mapping."""
    return {
        "schema": SCHEMA,
        "suite": "kernel",
        "python": "3.x",
        "benchmarks": {
            name: {
                "layer": "kernel",
                "iterations": 3,
                "units": 100,
                "unit": "events",
                "median_ns": median,
                "p95_ns": median,
                "min_ns": median,
                "units_per_s": 100 / (median / 1e9),
                "reference_ns": reference_ns,
                "relative": median / reference_ns,
            }
            for name, median in medians.items()
        },
    }


class TestRunBench:
    def test_statistics_are_consistent(self):
        result = run_bench(
            "noop", lambda: 50, layer="kernel", unit="events",
            iterations=5, warmup=0,
        )
        assert result.units == 50
        assert result.min_ns <= result.median_ns <= result.p95_ns
        assert result.units_per_s > 0
        assert result.iterations == 5
        assert result.reference_ns > 0 and result.relative > 0

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            run_bench("x", lambda: 1, layer="kernel", unit="u", iterations=0)


class TestQuickSuites:
    def test_kernel_suite_quick(self):
        results = run_suite("kernel", quick=True)
        assert [r.name for r in results] == [
            entry[0] for entry in SUITES["kernel"]
        ]
        for result in results:
            assert result.median_ns > 0, result.name
            assert result.units > 0, result.name

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")


class TestSchema:
    def test_write_load_round_trip(self, tmp_path):
        results = [
            run_bench("noop", lambda: 10, layer="kernel", unit="events",
                      iterations=2, warmup=0)
        ]
        path = write_suite(tmp_path / "BENCH_kernel.json", "kernel", results)
        data = load_suite(path)
        assert data["schema"] == SCHEMA
        assert data["suite"] == "kernel"
        assert set(data["benchmarks"]) == {"noop"}
        entry = data["benchmarks"]["noop"]
        assert entry["units"] == 10
        assert entry["median_ns"] > 0

    def test_validate_rejects_bad_schema(self):
        suite = synthetic_suite({"a": 100})
        suite["schema"] = "other/9"
        with pytest.raises(ValueError, match="schema"):
            validate_suite(suite)

    def test_validate_refuses_the_wall_clock_schema(self):
        # Files written before the CPU clock + reference loop carry
        # wall-time medians: refused outright, never mis-compared.
        suite = synthetic_suite({"a": 100})
        suite["schema"] = "repro-bench/1"
        with pytest.raises(ValueError, match="schema"):
            validate_suite(suite)
        del suite["benchmarks"]["a"]["reference_ns"]
        suite["schema"] = SCHEMA
        with pytest.raises(ValueError, match="reference_ns"):
            validate_suite(suite)

    def test_validate_rejects_missing_fields(self):
        suite = synthetic_suite({"a": 100})
        del suite["benchmarks"]["a"]["median_ns"]
        with pytest.raises(ValueError, match="median_ns"):
            validate_suite(suite)

    def test_committed_baselines_validate(self):
        # The repo-level BENCH_*.json baselines must stay schema-valid.
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        for name in ("BENCH_kernel.json", "BENCH_layers.json"):
            path = repo_root / name
            assert path.exists(), f"{name} baseline missing"
            data = load_suite(path)
            assert data["benchmarks"], f"{name} is empty"


class TestCompare:
    def test_equal_suites_pass(self):
        base = synthetic_suite({"a": 100, "b": 2000})
        report = compare_suites(base, base, threshold=0.3)
        assert report.passed
        assert all(c.ratio == 1.0 for c in report.comparisons)

    def test_regression_fails(self):
        base = synthetic_suite({"a": 100})
        current = synthetic_suite({"a": 140})  # +40% > 30% threshold
        report = compare_suites(current, base, threshold=0.3)
        assert not report.passed
        assert report.comparisons[0].regressed
        assert "REGRESSED" in report.render()

    def test_speedup_passes(self):
        base = synthetic_suite({"a": 140})
        current = synthetic_suite({"a": 100})
        assert compare_suites(current, base, threshold=0.3).passed

    def test_within_threshold_passes(self):
        base = synthetic_suite({"a": 100})
        current = synthetic_suite({"a": 125})  # +25% < 30%
        assert compare_suites(current, base, threshold=0.3).passed

    def test_slow_host_is_not_a_regression(self):
        # Twice the median on a host whose reference loop also takes
        # twice as long is the same speed; the same median on a host
        # twice as fast is a 2x slowdown.
        base = synthetic_suite({"a": 100}, reference_ns=1000)
        slow_host = synthetic_suite({"a": 200}, reference_ns=2000)
        report = compare_suites(slow_host, base, threshold=0.3)
        assert report.passed and report.comparisons[0].ratio == 1.0
        fast_host = synthetic_suite({"a": 100}, reference_ns=500)
        report = compare_suites(fast_host, base, threshold=0.3)
        assert not report.passed and report.comparisons[0].ratio == 2.0

    def test_missing_benchmark_fails(self):
        base = synthetic_suite({"a": 100, "gone": 100})
        current = synthetic_suite({"a": 100})
        report = compare_suites(current, base)
        assert not report.passed
        assert report.missing == ["gone"]

    def test_new_benchmark_ignored(self):
        base = synthetic_suite({"a": 100})
        current = synthetic_suite({"a": 100, "new": 50})
        assert compare_suites(current, base).passed


@pytest.fixture
def tiny_suite(monkeypatch):
    """Replace both suites with single near-instant benchmarks."""
    monkeypatch.setitem(
        SUITES, "kernel", [("noop", "kernel", "events", lambda: 10)]
    )
    monkeypatch.setitem(
        SUITES, "layers", [("noop2", "layers", "frames", lambda: 5)]
    )


class TestCli:
    def test_run_and_write(self, tiny_suite, tmp_path, capsys):
        code = bench_cli.main(
            ["--suite", "kernel", "--quick", "--out", str(tmp_path)]
        )
        assert code == 0
        data = load_suite(tmp_path / "BENCH_kernel.json")
        assert set(data["benchmarks"]) == {"noop"}
        assert "noop" in capsys.readouterr().out

    def test_compare_pass_and_fail(self, tiny_suite, tmp_path, capsys):
        baseline = tmp_path / "BENCH_kernel.json"
        code = bench_cli.main(
            ["--suite", "kernel", "--quick", "--out", str(tmp_path)]
        )
        assert code == 0
        # Comparing against the just-written baseline passes (threshold
        # is generous enough for timer noise on a no-op benchmark).
        code = bench_cli.main(
            ["--suite", "kernel", "--quick",
             "--compare", str(baseline), "--threshold", "1000"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        # A baseline with an impossibly fast median must fail.
        data = json.loads(baseline.read_text())
        data["benchmarks"]["noop"]["relative"] = 1e-9
        baseline.write_text(json.dumps(data))
        code = bench_cli.main(
            ["--suite", "kernel", "--quick", "--compare", str(baseline)]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_compare_directory_baseline(self, tiny_suite, tmp_path):
        code = bench_cli.main(["--suite", "all", "--quick",
                               "--out", str(tmp_path)])
        assert code == 0
        code = bench_cli.main(
            ["--suite", "all", "--quick",
             "--compare", str(tmp_path), "--threshold", "1000"]
        )
        assert code == 0

    def test_compare_missing_baseline_fails(self, tiny_suite, tmp_path):
        code = bench_cli.main(
            ["--suite", "kernel", "--quick",
             "--compare", str(tmp_path / "absent.json")]
        )
        assert code == 1

    def test_repro_cli_dispatches_bench(self, tiny_suite, capsys):
        from repro.experiments.runner import main as repro_main

        code = repro_main(["bench", "--suite", "kernel", "--quick"])
        assert code == 0
        assert "noop" in capsys.readouterr().out


class TestOnlyFilter:
    """The --only selector: validation and compare scope."""

    @pytest.fixture
    def paired_suite(self, monkeypatch):
        monkeypatch.setitem(
            SUITES,
            "kernel",
            [
                ("fast", "kernel", "events", lambda: 10),
                ("slow", "kernel", "events", lambda: 10),
                ("other", "kernel", "events", lambda: 10),
            ],
        )
        monkeypatch.setitem(SUITES, "layers", [])

    def test_runs_only_selected(self, paired_suite, capsys):
        code = bench_cli.main(["--quick", "--only", "other"])
        assert code == 0
        out = capsys.readouterr().out
        assert "other" in out
        assert "fast" not in out

    def test_unknown_name_rejected(self, paired_suite, capsys):
        code = bench_cli.main(["--quick", "--only", "nonsense"])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().out
        with pytest.raises(ValueError):
            run_suite("kernel", only=["nonsense"])

    def test_only_with_out_refused(self, paired_suite, tmp_path, capsys):
        code = bench_cli.main(
            ["--quick", "--only", "other", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "partial baseline" in capsys.readouterr().out
        assert not (tmp_path / "BENCH_kernel.json").exists()

    def test_compare_restricted_to_ran_benches(
        self, paired_suite, tmp_path, capsys
    ):
        baseline = tmp_path / "BENCH_kernel.json"
        code = bench_cli.main(
            ["--suite", "kernel", "--quick", "--out", str(tmp_path)]
        )
        assert code == 0
        capsys.readouterr()
        # Full baseline on disk, filtered run: the benches that did not
        # run must not be reported MISSING.
        code = bench_cli.main(
            ["--quick", "--only", "other",
             "--compare", str(baseline), "--threshold", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MISSING" not in out

    def test_comma_and_repeat_forms(self, paired_suite, capsys):
        code = bench_cli.main(
            ["--quick", "--only", "other,slow", "--only", "fast"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "other" in out and "slow" in out and "fast" in out
