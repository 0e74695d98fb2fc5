"""``python -m repro warehouse`` and the bench-compare attribution gate.

Drives the real CLI entry points in-process: trace --export-run writes
a bundle, warehouse ingest/query/diff/report consume it, and a failing
``bench --compare`` with ``--warehouse`` attaches the attribution-diff
artifact.
"""

import json

import pytest

from repro.bench import cli as bench_cli
from repro.bench.harness import SCHEMA, compare_suites
from repro.bench.suites import SUITES
from repro.experiments.runner import main as runner_main
from repro.perception.stack import PerceptionStack, StackConfig
from repro.experiments.trace_cli import main as trace_main
from repro.warehouse import (
    DIFF_SCHEMA,
    RunKey,
    RunManifest,
    SpanWarehouse,
    attach_attribution_diff,
    build_regression_artifact,
    load_run_bundle,
    write_run_bundle,
)
from repro.warehouse.cli import main as warehouse_main
from repro.warehouse.query import RunSelector

FRAMES = 8


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """Two run bundles + a warehouse pre-loaded with both."""
    root = tmp_path_factory.mktemp("warehouse_cli")
    for run_id, commit, scenario, config in (
        ("base", "cA", "benign", StackConfig(seed=1, spans=True)),
        ("head", "cB", "lossy_link",
         StackConfig(seed=7, link_loss=0.08, spans=True)),
    ):
        stack = PerceptionStack(config)
        stack.run(n_frames=FRAMES)
        write_run_bundle(
            stack.spans, stack.chains, FRAMES, root / run_id,
            RunKey(run_id=run_id, commit=commit, suite="trace",
                   scenario=scenario, vehicle="veh0"),
        )
    db = root / "wh.db"
    code = warehouse_main(
        ["ingest", str(db), str(root / "base"), str(root / "head")]
    )
    assert code == 0
    return root, db


class TestIngestCommand:
    def test_reingest_is_skipped(self, bundles, capsys):
        root, db = bundles
        code = warehouse_main(["ingest", str(db), str(root / "base")])
        assert code == 0
        assert "skipped (already ingested) base" in capsys.readouterr().out

    def test_not_a_bundle_raises(self, bundles, tmp_path):
        _, db = bundles
        with pytest.raises(FileNotFoundError, match="not a run bundle"):
            warehouse_main(["ingest", str(db), str(tmp_path)])

    def test_bundle_round_trip(self, bundles):
        root, _ = bundles
        manifest, spans = load_run_bundle(root / "base")
        assert manifest.key.run_id == "base"
        assert manifest.key.commit == "cA"
        assert manifest.n_frames == FRAMES
        assert spans
        assert all(span.end is not None for span in spans)


class TestQueryCommand:
    def test_cohort_query(self, bundles, capsys):
        _, db = bundles
        code = warehouse_main(["query", str(db), "--select", "commit=cA"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cohort [commit=cA]: 1 runs" in out
        assert "telescoping OK" in out

    def test_single_chain_filter(self, bundles, capsys):
        _, db = bundles
        code = warehouse_main(
            ["query", str(db), "--chain", "front_objects"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "front_objects" in out
        assert "rear_objects" not in out

    def test_no_match_exits_nonzero(self, bundles, capsys):
        _, db = bundles
        assert warehouse_main(
            ["query", str(db), "--select", "commit=nope"]
        ) == 1
        assert "no runs match" in capsys.readouterr().out

    def test_unknown_chain_exits_nonzero(self, bundles, capsys):
        _, db = bundles
        assert warehouse_main(["query", str(db), "--chain", "nope"]) == 1
        assert "unknown chain" in capsys.readouterr().out

    def test_bad_selector_is_a_usage_error(self, bundles):
        _, db = bundles
        with pytest.raises(SystemExit) as excinfo:
            warehouse_main(["query", str(db), "--select", "branch=main"])
        assert excinfo.value.code == 2


class TestDiffCommand:
    def test_diff_writes_document(self, bundles, tmp_path, capsys):
        _, db = bundles
        out_path = tmp_path / "diff.json"
        code = warehouse_main([
            "diff", str(db), "--base", "commit=cA", "--head", "commit=cB",
            "--json", str(out_path),
        ])
        assert code == 0
        assert "attribution diff" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert document["schema"] == DIFF_SCHEMA
        assert document["base"]["runs"] == ["base"]
        assert document["head"]["runs"] == ["head"]

    def test_empty_side_exits_nonzero(self, bundles, capsys):
        _, db = bundles
        assert warehouse_main([
            "diff", str(db), "--base", "commit=nope", "--head", "commit=cB",
        ]) == 1
        assert "no runs match the base selector" in capsys.readouterr().out


class TestReportCommand:
    def test_inventory(self, bundles, capsys):
        _, db = bundles
        assert warehouse_main(["report", str(db)]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "head" in out
        assert "2 runs" in out and "digest" in out

    def test_empty_warehouse(self, tmp_path, capsys):
        assert warehouse_main(["report", str(tmp_path / "empty.db")]) == 0
        assert "warehouse is empty" in capsys.readouterr().out


class TestTraceExportIntegration:
    def test_trace_export_run_ingests(self, tmp_path, capsys):
        bundle = tmp_path / "run"
        code = trace_main([
            "--scenario", "benign", "--frames", "6", "--no-report",
            "--export-run", str(bundle), "--run-id", "t1",
            "--commit", "deadbeef",
        ])
        assert code == 0
        assert "wrote run bundle t1" in capsys.readouterr().out
        db = tmp_path / "wh.db"
        assert warehouse_main(["ingest", str(db), str(bundle)]) == 0
        assert "ingested t1" in capsys.readouterr().out

    def test_routed_from_runner(self, tmp_path, capsys):
        assert runner_main(
            ["warehouse", "report", str(tmp_path / "empty.db")]
        ) == 0
        assert "warehouse is empty" in capsys.readouterr().out


def synthetic_suite(medians, suite="kernel"):
    return {
        "schema": SCHEMA,
        "suite": suite,
        "python": "3.x",
        "benchmarks": {
            name: {
                "layer": suite, "iterations": 3, "units": 100,
                "unit": "events", "median_ns": median, "p95_ns": median,
                "min_ns": median, "units_per_s": 100 / (median / 1e9),
                "reference_ns": 10**6, "relative": median / 10**6,
            }
            for name, median in medians.items()
        },
    }


class TestBenchGate:
    def test_passing_report_attaches_nothing(self, bundles, tmp_path):
        _, db = bundles
        report = compare_suites(
            synthetic_suite({"a": 100}), synthetic_suite({"a": 100})
        )
        assert report.passed
        out = tmp_path / "diff.json"
        assert attach_attribution_diff(
            report, db, out, RunSelector(), RunSelector()
        ) is None
        assert not out.exists()

    def test_failing_report_writes_artifact(self, bundles, tmp_path):
        _, db = bundles
        report = compare_suites(
            synthetic_suite({"a": 200, "b": 100}),
            synthetic_suite({"a": 100, "b": 100, "gone": 50}),
        )
        assert not report.passed
        out = tmp_path / "diff.json"
        path = attach_attribution_diff(
            report, db, out,
            RunSelector.parse("commit=cA"), RunSelector.parse("commit=cB"),
        )
        assert path == out
        document = json.loads(out.read_text())
        assert document["schema"] == DIFF_SCHEMA
        assert document["bench"]["suite"] == "kernel"
        assert document["bench"]["flagged"] == ["a", "gone"]
        assert "regressed_categories" in document

    def test_build_regression_artifact_annotates(self, bundles):
        _, db = bundles
        with SpanWarehouse(db) as store:
            artifact = build_regression_artifact(
                store, RunSelector.parse("commit=cA"),
                RunSelector.parse("commit=cB"),
                flagged=["ingest_frame"], suite="layers", threshold=0.25,
            )
        assert artifact["bench"] == {
            "suite": "layers", "flagged": ["ingest_frame"], "threshold": 0.25,
        }
        for entry in artifact["regressed_categories"]:
            assert entry["ratio_p95"] > 1.25

    def test_bench_cli_end_to_end(self, bundles, tmp_path, monkeypatch,
                                  capsys):
        """A failing --compare with --warehouse emits the artifact."""
        _, db = bundles
        monkeypatch.setitem(
            SUITES, "kernel", [("noop", "kernel", "events", lambda: 10)]
        )
        baseline = tmp_path / "BENCH_kernel.json"
        baseline.write_text(json.dumps(synthetic_suite({"noop": 1})))
        artifact = tmp_path / "attribution_diff.json"
        code = bench_cli.main([
            "--suite", "kernel", "--quick", "--compare", str(baseline),
            "--warehouse", str(db),
            "--attr-base", "commit=cA", "--attr-head", "commit=cB",
            "--attribution-out", str(artifact),
        ])
        assert code == 1  # the regression still fails the gate
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert f"wrote attribution diff to {artifact}" in out
        document = json.loads(artifact.read_text())
        assert document["bench"]["flagged"] == ["noop"]
        assert document["base"]["runs"] == ["base"]

    def test_bench_cli_without_warehouse_skips_artifact(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setitem(
            SUITES, "kernel", [("noop", "kernel", "events", lambda: 10)]
        )
        baseline = tmp_path / "BENCH_kernel.json"
        baseline.write_text(json.dumps(synthetic_suite({"noop": 1})))
        code = bench_cli.main([
            "--suite", "kernel", "--quick", "--compare", str(baseline),
        ])
        assert code == 1
        assert "attribution diff" not in capsys.readouterr().out
