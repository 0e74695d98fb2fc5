"""Smoke + contract tests of the benchmark itself.

Run from the repository root: ``python -m pytest e2e_bench/tests -q``
(tier-1's ``testpaths`` is ``tests/``; this suite is the benchmark's
own and costs one ``run --quick``, about 20 s).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from e2e_bench import OUT_DIR  # noqa: E402
from e2e_bench import metrics as M  # noqa: E402
from e2e_bench.trace import ROOT as ROOT_SPAN  # noqa: E402
from e2e_bench.trace import (  # noqa: E402
    Installation, Tracer, install, self_times,
)

MANIFEST = M.load_manifest()
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def bench(*args, cwd=ROOT, check=True):
    return subprocess.run(
        [sys.executable, "-m", "e2e_bench", *args], cwd=cwd, check=check,
        capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick") / "runs.json"
    done = bench("run", "--quick", "--out", str(out))
    return done.stdout, json.loads(out.read_text())


def test_every_manifest_metric_is_printed_with_its_unit(quick_run):
    stdout, _ = quick_run
    sections = stdout.split("== ")[1:]
    assert [s.split()[0] for s in sections] == WORKLOADS
    for section in sections:
        printed = {}
        for line in section.splitlines():
            cells = line.split()
            if len(cells) == 3 and line.startswith("    "):
                printed[cells[0]] = cells[2]
        for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
            assert printed.get(metric["name"]) == metric["unit"], metric
        assert "failed_op_share" in printed


def test_quick_run_fails_no_op(quick_run):
    _, document = quick_run
    for name, result in document["runs"][0]["results"].items():
        for phase in ("untraced", "traced"):
            assert result[phase]["failed"] == 0, (name, result[phase])
            assert result[phase]["attempted"] >= 2


def test_end_to_end_metrics_are_never_zero(quick_run):
    _, document = quick_run
    for name, result in document["runs"][0]["results"].items():
        for metric in MANIFEST["end_to_end"]:
            assert result["untraced"]["values"][metric["name"]] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_form_a_forest_and_rows_sum_to_the_root(quick_run, workload):
    path = OUT_DIR / f"{workload}.spans.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans, "traced run wrote no spans"
    roots = 0
    for index, span in enumerate(spans):
        assert span["end_ns"] >= span["start_ns"]
        parent = span["parent"]
        if parent < 0:
            assert span["name"] == ROOT_SPAN
            roots += 1
            continue
        assert parent < index, "a span must start after its parent"
        outer = spans[parent]
        assert outer["op"] == span["op"]
        assert outer["start_ns"] <= span["start_ns"]
        assert span["end_ns"] <= outer["end_ns"]
    assert roots == 2  # --quick traces two ops
    rows, _calls, root_ns = self_times(
        [[s["name"], s["start_ns"], s["end_ns"], s["parent"]] for s in spans]
    )
    assert all(ns >= 0 for ns in rows.values()), rows
    assert abs(sum(rows.values()) - root_ns) <= 0.01 * root_ns
    # Siblings never overlap: each parent's children fit inside it.
    covered = {}
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] = covered.get(span["parent"], 0) + (
                span["end_ns"] - span["start_ns"]
            )
    for parent, total in covered.items():
        assert total <= spans[parent]["end_ns"] - spans[parent]["start_ns"]


def test_trace_shares_point_at_the_expected_layers(quick_run):
    _, document = quick_run
    results = document["runs"][0]["results"]
    dense = results["stack_dense"]["traced"]["rows"]
    sparse = results["stack_sparse"]["traced"]["rows"]

    def outside_perception(rows):
        return {row: cells["share_pct"] for row, cells in rows.items()
                if not row.startswith("perception.")}

    assert dense["perception.clustering"]["share_pct"] >= 80
    assert dense["sim"]["share_pct"] < 5
    # The ISSUE expected ``sim`` to be the largest sparse row.  Measured,
    # the per-point BFS still costs ~0.8 ms/frame at 55 points: the
    # clustering row stays first (40-47%) and ``sim`` leads the rest.
    assert sparse["perception.clustering"]["share_pct"] < 50
    rest = outside_perception(sparse)
    assert max(rest, key=rest.get) == "sim"
    assert sum(rest.values()) > 3 * sum(outside_perception(dense).values())


def test_wrappers_are_fully_removed_after_a_traced_run():
    from repro.perception import clustering, stack
    from repro.sim.kernel import Simulator
    from repro.telemetry.uplink.ingest import UplinkIngestor

    before = {
        "run": Simulator.__dict__["run"],
        "recover": UplinkIngestor.__dict__["recover"],
        "clusters": clustering.euclidean_clusters,
        "stack_init": stack.PerceptionStack.__dict__["__init__"],
    }
    tracer = Tracer()
    installation = install(tracer)
    patched = [(p.owner, p.attr, p.original) for p in installation.patches]
    assert len(patched) > 40
    assert Simulator.__dict__["run"] is not before["run"]
    assert clustering.euclidean_clusters is not before["clusters"]
    assert isinstance(UplinkIngestor.__dict__["recover"], classmethod)

    tracer.begin_op(0)
    stack.PerceptionStack(stack.StackConfig(trace_prefixes=())).run(n_frames=2)
    tracer.end_op()
    assert {"sim", "perception.clustering", "dds.write", "dds.receive",
            "perception.fusion", "core.monitor.hooks"} <= {
        span[0] for span in tracer.spans
    }

    installation.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    assert Simulator.__dict__["run"] is before["run"]
    assert UplinkIngestor.__dict__["recover"] is before["recover"]
    assert clustering.euclidean_clusters is before["clusters"]
    assert stack.PerceptionStack.__dict__["__init__"] is before["stack_init"]
    spans = len(tracer.spans)
    tracer.begin_op(1)
    fresh = stack.PerceptionStack(stack.StackConfig(trace_prefixes=()))
    fresh.run(n_frames=1)
    tracer.end_op()
    assert len(tracer.spans) == spans + 1, "an uninstalled wrapper records"
    assert type(fresh.fusion.sub_front.reader.receive_filters) is list


def test_a_vanished_entry_point_names_the_row_it_fed():
    from repro.sim.kernel import Simulator

    installation = Installation(Tracer())
    with pytest.raises(LookupError, match="trace row 'sim'.*Simulator.sprint"):
        installation.method(Simulator, "sprint", "sim")
    assert installation.patches == []


def test_a_moved_digest_fails_the_op_instead_of_repinning():
    from e2e_bench.measure import load_pins, verdict
    from e2e_bench.workloads import make

    workload = make("stack_sparse")
    spec = workload.spec_at([1, 2, 3, 4], 0)
    obs = workload.observe(spec, workload.run(spec, workload.prepare(spec, OUT_DIR)))
    pins = load_pins("stack_sparse")
    before = json.dumps(pins, sort_keys=True)
    assert verdict(obs, pins[spec.pin]) == ""
    moved = dict(pins[spec.pin], digest="0" * 64)
    assert "digest" in verdict(obs, moved)
    assert "no pinned output" in verdict(obs, None)
    assert json.dumps(load_pins("stack_sparse"), sort_keys=True) == before


def test_driver_contract_line(tmp_path):
    done = bench("measure", "--workload", "fleet_clean", "--seed", "7",
                 "--seconds", "1", "--trace", "0")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [
        m["name"] for m in MANIFEST["end_to_end"]
    ]
    for metric in MANIFEST["end_to_end"]:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"] and cell["value"] > 0


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "e2e_bench", tmp_path / "e2e_bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = bench("measure", "--workload", "stack_dense", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path, check=False)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_compare_reports_no_worse_for_a_set_against_itself(quick_run, tmp_path):
    _, document = quick_run
    path = tmp_path / "set.json"
    path.write_text(json.dumps(document))
    done = bench("compare", str(path), str(path))
    assert done.returncode == 0
    assert " worse" not in done.stdout
    for name in WORKLOADS:
        assert f"{name:<13s} frames_per_s" in done.stdout
    # The A/B side has no bound in the manifest; compare judges it too.
    assert "stack_sparse  unmonitored_frames_per_s" in done.stdout
    assert "stack_sparse  core.monitor.overhead_ms_per_frame" in done.stdout
    assert "stack_dense   unmonitored_frames_per_s" not in done.stdout
