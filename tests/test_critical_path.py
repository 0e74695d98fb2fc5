"""Critical-path extraction, attribution exactness, and the exporters."""

import json

import pytest

from repro.perception.stack import PerceptionStack, StackConfig
from repro.tracing.critical_path import (
    CriticalPathAnalyzer,
    attribute_chain,
    build_edges,
    render_attribution,
)
from repro.tracing.export import chrome_trace, write_chrome_trace, write_jsonl
from repro.tracing.spans import SpanRecorder


FRAMES = 10


@pytest.fixture(scope="module")
def benign_stack():
    stack = PerceptionStack(StackConfig(seed=1, spans=True))
    stack.run(n_frames=FRAMES)
    return stack


@pytest.fixture(scope="module")
def lossy_stack():
    stack = PerceptionStack(StackConfig(seed=7, link_loss=0.08, spans=True))
    stack.run(n_frames=FRAMES)
    return stack


class TestEdgeDecomposition:
    def test_edges_telescope_exactly(self, benign_stack):
        analyzer = CriticalPathAnalyzer(benign_stack.spans)
        total = 0
        for chain in benign_stack.chains.values():
            for path in analyzer.analyze(chain, range(FRAMES)):
                # verify() already ran inside instance_path; re-check the
                # invariant explicitly here.
                assert sum(e.duration for e in path.edges) == path.e2e_ns
                assert all(e.duration >= 0 for e in path.edges)
                total += 1
        assert total == 4 * FRAMES  # benign: every instance completes

    def test_edges_telescope_under_faults(self, lossy_stack):
        analyzer = CriticalPathAnalyzer(lossy_stack.spans)
        checked = 0
        for chain in lossy_stack.chains.values():
            for path in analyzer.analyze(chain, range(FRAMES)):
                assert sum(e.duration for e in path.edges) == path.e2e_ns
                checked += 1
        assert checked > 0

    def test_path_spans_start_at_chain_publication(self, benign_stack):
        analyzer = CriticalPathAnalyzer(benign_stack.spans)
        chain = benign_stack.chains["front_objects"]
        path = analyzer.instance_path(chain, 3)
        assert path is not None
        first, last = path.spans[0], path.spans[-1]
        assert first.name == "dds.publish"
        assert first.attrs["topic"] == "points_front"
        assert last.name == "dds.transport"
        assert last.attrs["topic"] == "objects"
        assert path.frame == 3

    def test_categories_cover_compute_and_network(self, benign_stack):
        analyzer = CriticalPathAnalyzer(benign_stack.spans)
        chain = benign_stack.chains["front_objects"]
        path = analyzer.instance_path(chain, 2)
        totals = path.by_category()
        assert totals.get("compute", 0) > 0
        assert totals.get("network", 0) > 0
        assert sum(totals.values()) == path.e2e_ns

    def test_build_edges_splits_queue_gaps(self):
        rec = SpanRecorder(sim=type("S", (), {"now": 0})())
        a = rec.begin("a", "compute", parent=None, start=0)
        rec.end(a, end=10)
        b = rec.begin("b", "compute", parent=a.context, start=25)
        rec.end(b, end=40)
        edges = build_edges([a, b])
        assert [(e.name, e.category, e.duration) for e in edges] == [
            ("a", "compute", 10),
            ("queue:b", "queue", 15),
            ("b", "compute", 15),
        ]
        assert sum(e.duration for e in edges) == 40

    def test_missing_frame_returns_none(self, benign_stack):
        analyzer = CriticalPathAnalyzer(benign_stack.spans)
        chain = benign_stack.chains["front_objects"]
        assert analyzer.instance_path(chain, FRAMES + 50) is None


class TestAttribution:
    def test_aggregates_all_instances(self, benign_stack):
        analyzer = CriticalPathAnalyzer(benign_stack.spans)
        chain = benign_stack.chains["rear_ground"]
        attribution = attribute_chain(analyzer, chain, range(FRAMES))
        assert attribution.n_instances == FRAMES
        assert attribution.e2e_histogram.count == FRAMES
        shares = attribution.category_share()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert shares["compute"] > 0.5  # perception is compute-bound

    def test_segment_burn_within_budgets_when_benign(self, benign_stack):
        analyzer = CriticalPathAnalyzer(benign_stack.spans)
        chain = benign_stack.chains["front_objects"]
        attribution = attribute_chain(analyzer, chain, range(FRAMES))
        for name, (hist, budget) in attribution.segment_burn.items():
            assert hist.count == FRAMES, name
            assert budget is not None
            assert hist.max <= budget, f"{name} overran d_mon in benign run"

    def test_render_report_mentions_every_segment(self, benign_stack):
        analyzer = CriticalPathAnalyzer(benign_stack.spans)
        chain = benign_stack.chains["front_objects"]
        text = render_attribution(attribute_chain(analyzer, chain, range(FRAMES)))
        for segment in chain.segments:
            assert segment.name in text
        assert "e2e" in text and "share=" in text


class TestExport:
    def test_chrome_trace_structure(self, benign_stack):
        document = chrome_trace(benign_stack.spans)
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in events}
        assert {"X", "i", "M"} <= phases
        for event in events:
            assert "pid" in event and "name" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["args"]["dur_ns"] >= 0

    def test_chrome_trace_written_file_is_json(self, benign_stack, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(benign_stack.spans, str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count

    def test_jsonl_round_trip_is_lossless(self, benign_stack, tmp_path):
        path = tmp_path / "spans.jsonl"
        count = write_jsonl(benign_stack.spans, str(path))
        original = benign_stack.spans.spans
        assert count == len(original)
        header, *records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert header == {"schema": "repro-spans/1", "spans": len(original)}
        assert len(records) == len(original)
        fields = {"name", "cat", "trace", "id", "start", "end", "parent",
                  "links", "attrs"}
        for span, record in zip(original, records):
            assert set(record) <= fields
            assert (
                record["name"], record["cat"], record["trace"], record["id"],
                record["start"], record["end"], record.get("parent"),
                record.get("links", []), record.get("attrs", {}),
            ) == (
                span.name, span.category, span.trace_id, span.span_id,
                span.start, span.end, span.parent_id, span.links, span.attrs,
            )
        # Every optional field is exercised by the benign run.
        assert all(any(key in record for record in records)
                   for key in ("parent", "links", "attrs"))


class TestTraceCli:
    def test_trace_subcommand_routes_and_exports(self, tmp_path, capsys):
        from repro.experiments.runner import main as runner_main

        chrome = tmp_path / "trace.json"
        code = runner_main([
            "trace", "--frames", "8", "--no-report",
            "--chrome", str(chrome),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "attribution exact on" in out
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_trace_cli_report_lists_chains(self, capsys):
        from repro.experiments.trace_cli import main as trace_main

        code = trace_main(["--frames", "8", "--chain", "front_objects"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chain front_objects" in out
        assert "budget burn" in out

    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_trace_cli_rejects_no_frames_as_usage(self, frames, capsys):
        # It used to schedule the lidar stop before time 0 and exit 1
        # with a SimulationError traceback.
        from repro.experiments.trace_cli import main as trace_main

        with pytest.raises(SystemExit) as exit_info:
            trace_main(["--frames", frames])
        assert exit_info.value.code == 2
        assert "--frames must be >= 1" in capsys.readouterr().err
