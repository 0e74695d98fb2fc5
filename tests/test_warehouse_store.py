"""Warehouse determinism, append-only discipline, and reconciliation.

The contracts under test (ISSUE acceptance criteria):

- re-ingesting an identical run is a no-op and leaves the warehouse
  digest unchanged; a run_id collision with *different* content is
  refused without touching stored state;
- the store digest and all query output are independent of ingest
  order;
- every version guard (warehouse meta, run manifest, span JSONL
  header) raises ``SchemaVersionError`` before state changes, and
  unknown extra fields warn instead of failing;
- single-run warehouse cohorts reconcile **exactly** (snapshot
  equality, not approximate quantiles) with a live
  ``attribute_chain`` of the same spans, integer-ns telescoping
  included.
"""

import io
import json
import sqlite3

import pytest

from repro.perception.stack import PerceptionStack, StackConfig
from repro.schema import SchemaVersionError
from repro.tracing.critical_path import CriticalPathAnalyzer, attribute_chain
from repro.tracing.export import parse_jsonl_lines, to_jsonl
from repro.warehouse import (
    RunKey,
    RunManifest,
    RunSelector,
    SpanWarehouse,
    aggregate,
    content_digest,
)

FRAMES = 8


@pytest.fixture(scope="module")
def base_stack():
    stack = PerceptionStack(StackConfig(seed=1, spans=True))
    stack.run(n_frames=FRAMES)
    return stack


@pytest.fixture(scope="module")
def head_stack():
    stack = PerceptionStack(StackConfig(seed=7, link_loss=0.08, spans=True))
    stack.run(n_frames=FRAMES)
    return stack


def manifest_of(stack, run_id, commit, scenario):
    return RunManifest.for_run(
        RunKey(run_id=run_id, commit=commit, suite="trace",
               scenario=scenario, vehicle="veh0"),
        stack.chains,
        FRAMES,
    )


@pytest.fixture(scope="module")
def base_payload(base_stack):
    return manifest_of(base_stack, "base", "cA", "benign"), \
        list(base_stack.spans.spans)


@pytest.fixture(scope="module")
def head_payload(head_stack):
    return manifest_of(head_stack, "head", "cB", "lossy_link"), \
        list(head_stack.spans.spans)


@pytest.fixture(scope="module")
def store(base_payload, head_payload):
    wh = SpanWarehouse(":memory:")
    wh.ingest_run(*base_payload)
    wh.ingest_run(*head_payload)
    yield wh
    wh.close()


class TestIngestion:
    def test_ingest_counts(self, store, base_stack):
        runs = {run["run_id"]: run for run in store.runs()}
        assert set(runs) == {"base", "head"}
        # Benign run: all 4 chains complete every frame.
        assert runs["base"]["n_instances"] == 4 * FRAMES
        assert runs["base"]["n_spans"] == len(base_stack.spans.spans)
        # Lossy run: some instances drop, none are invented.
        assert 0 < runs["head"]["n_instances"] <= 4 * FRAMES

    def test_double_ingest_is_idempotent(self, store, base_payload):
        before = store.digest()
        result = store.ingest_run(*base_payload)
        assert result.skipped
        assert result.digest == content_digest(*base_payload)
        assert store.digest() == before

    def test_run_id_collision_refused(self, store, base_payload, head_payload):
        manifest, _ = base_payload
        _, other_spans = head_payload
        before = store.digest()
        with pytest.raises(ValueError, match="append-only"):
            store.ingest_run(manifest, other_spans)
        # The refused ingest must not leave partial state behind.
        assert store.digest() == before

    def test_ingest_order_never_changes_the_digest(
        self, store, base_payload, head_payload
    ):
        with SpanWarehouse(":memory:") as reversed_store:
            reversed_store.ingest_run(*head_payload)
            reversed_store.ingest_run(*base_payload)
            assert reversed_store.digest() == store.digest()

    def test_edges_telescope_in_sql(self, store):
        # Stored edge durations must sum exactly (integer ns) to the
        # stored instance e2e, per (run, chain, frame).
        rows = store._conn.execute(
            "SELECT i.run_id, i.chain, i.frame, i.e2e_ns, "
            "  SUM(e.end_ns - e.start_ns) "
            "FROM instances i JOIN edges e "
            "  ON e.run_id = i.run_id AND e.chain = i.chain "
            "  AND e.frame = i.frame "
            "GROUP BY i.run_id, i.chain, i.frame"
        ).fetchall()
        assert rows
        for run_id, chain, frame, e2e, edge_sum in rows:
            assert edge_sum == e2e, (run_id, chain, frame)

    def test_indexed_drilldowns(self, store):
        assert store.span_count() > 0
        assert store.edge_count() > 0
        assert store.edge_count(run_id="base") > 0
        assert store.edge_count(run_id="base", category="compute") > 0
        assert store.edge_count(run_id="nope") == 0


class TestSchemaGuards:
    def test_unknown_warehouse_schema_refused(self, tmp_path):
        path = tmp_path / "wh.db"
        SpanWarehouse(path).close()
        conn = sqlite3.connect(str(path))
        conn.execute(
            "UPDATE meta SET value = 'repro-warehouse/99' "
            "WHERE key = 'schema'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(SchemaVersionError):
            SpanWarehouse(path)

    def test_unknown_manifest_schema_refused(self, base_payload):
        data = base_payload[0].to_json()
        data["schema"] = "repro-warehouse-manifest/99"
        with pytest.raises(SchemaVersionError):
            RunManifest.from_json(data)

    def test_unknown_manifest_field_warns(self, base_payload):
        data = base_payload[0].to_json()
        data["fleet_epoch"] = 7
        with pytest.warns(UserWarning, match="fleet_epoch"):
            manifest = RunManifest.from_json(data)
        assert manifest.key == base_payload[0].key

    def test_manifest_round_trip(self, base_payload):
        manifest = base_payload[0]
        restored = RunManifest.from_json(
            json.loads(json.dumps(manifest.to_json()))
        )
        assert restored.key == manifest.key
        assert restored.chains == manifest.chains
        rebuilt = restored.build_chains()
        assert set(rebuilt) == {m["name"] for m in manifest.chains}
        for name, chain in rebuilt.items():
            assert chain.budget_e2e is not None, name

    def test_missing_span_header_refused(self, base_stack):
        lines = list(to_jsonl(base_stack.spans))[1:]  # drop the header
        with pytest.raises(SchemaVersionError):
            parse_jsonl_lines(iter(lines), require_header=True)
        # The tolerant reader (legacy files) still loads them.
        spans = parse_jsonl_lines(iter(lines), require_header=False)
        assert len(spans) == len(base_stack.spans.spans)

    def test_unknown_span_schema_refused(self, base_stack):
        lines = list(to_jsonl(base_stack.spans))
        lines[0] = json.dumps({"schema": "repro-spans/99"})
        with pytest.raises(SchemaVersionError) as excinfo:
            parse_jsonl_lines(iter(lines), require_header=True)
        assert "repro-spans/99" in str(excinfo.value)

    def test_unknown_span_field_warns_once(self, base_stack):
        lines = list(to_jsonl(base_stack.spans))
        for i in (1, 2):
            record = json.loads(lines[i])
            record["gpu_ns"] = 5
            lines[i] = json.dumps(record)
        with pytest.warns(UserWarning, match="gpu_ns") as caught:
            spans = parse_jsonl_lines(iter(lines), require_header=True)
        assert len(spans) == len(base_stack.spans.spans)
        assert len([w for w in caught
                    if "gpu_ns" in str(w.message)]) == 1

    def test_empty_run_id_rejected(self):
        with pytest.raises(ValueError):
            RunKey(run_id="")


class TestReconciliation:
    """Warehouse cohort aggregates == live per-run attribution, exactly."""

    def exact_match(self, store, stack, run_id):
        analyzer = CriticalPathAnalyzer(stack.spans)
        agg = aggregate(store, RunSelector(run_id=run_id))
        assert agg.run_ids == [run_id]
        assert set(agg.chains) == set(stack.chains)
        for name in stack.chains:
            live = attribute_chain(analyzer, stack.chains[name],
                                   range(FRAMES))
            cohort = agg.chains[name]
            assert cohort.n_instances == live.n_instances
            assert cohort.budget_e2e == live.budget_e2e
            # Snapshot equality is exact reconciliation: same bucket
            # counts, same totals, hence identical p50/p95/p99.
            assert cohort.e2e.snapshot() == live.e2e_histogram.snapshot()
            assert set(cohort.categories) == set(live.category_histograms)
            for key, hist in live.category_histograms.items():
                assert cohort.categories[key].snapshot() == hist.snapshot()
            for key, hist in live.edge_histograms.items():
                assert cohort.edges[key].snapshot() == hist.snapshot()
            assert set(cohort.segments) == set(live.segment_burn)
            for key, (hist, d_mon) in live.segment_burn.items():
                got_hist, got_budget = cohort.segments[key]
                assert got_hist.snapshot() == hist.snapshot()
                assert got_budget == d_mon
            assert cohort.telescoping_ok()

    def test_base_run_reconciles_exactly(self, store, base_stack):
        self.exact_match(store, base_stack, "base")

    def test_head_run_reconciles_exactly(self, store, head_stack):
        self.exact_match(store, head_stack, "head")
