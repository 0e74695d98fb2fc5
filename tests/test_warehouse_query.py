"""Cohort selectors, sketch-merge aggregation, and attribution diffs.

Includes the golden byte-stability contract: the attribution diff of
two pinned runs must serialize to the exact committed bytes in
``tests/golden/warehouse_diff.json`` regardless of ingest order.
Regenerate (after an intentional schema change) with::

    PYTHONPATH=src python tests/test_warehouse_query.py --regen
"""

import json
from pathlib import Path

import pytest

from repro.perception.stack import PerceptionStack, StackConfig
from repro.analysis.histogram import StreamingHistogram
from repro.warehouse import (
    DIFF_SCHEMA,
    RunKey,
    RunManifest,
    RunSelector,
    SpanWarehouse,
    aggregate,
    attribution_diff,
    dump_diff,
    regressed_categories,
    render_cohort,
    render_diff,
    select_runs,
)

FRAMES = 8
GOLDEN = Path(__file__).resolve().parent / "golden" / "warehouse_diff.json"


def build_payloads():
    payloads = []
    for run_id, commit, scenario, config in (
        ("golden-base", "cA", "benign", StackConfig(seed=1, spans=True)),
        ("golden-head", "cB", "lossy_link",
         StackConfig(seed=7, link_loss=0.08, spans=True)),
    ):
        stack = PerceptionStack(config)
        stack.run(n_frames=FRAMES)
        manifest = RunManifest.for_run(
            RunKey(run_id=run_id, commit=commit, suite="trace",
                   scenario=scenario, vehicle="veh0"),
            stack.chains,
            FRAMES,
        )
        payloads.append((manifest, list(stack.spans.spans)))
    return payloads


@pytest.fixture(scope="module")
def payloads():
    return build_payloads()


@pytest.fixture(scope="module")
def store(payloads):
    wh = SpanWarehouse(":memory:")
    for manifest, spans in payloads:
        wh.ingest_run(manifest, spans)
    yield wh
    wh.close()


class TestRunSelector:
    def test_parse_round_trip(self):
        sel = RunSelector.parse("commit=cA,scenario=benign")
        assert sel.commit == "cA"
        assert sel.scenario == "benign"
        assert sel.run_id is None
        assert sel.describe() == "commit=cA,scenario=benign"

    def test_empty_matches_everything(self):
        sel = RunSelector.parse("")
        assert sel.describe() == "all-runs"
        assert sel.matches({"run_id": "x", "commit": "y", "suite": "z",
                            "scenario": "", "vehicle": ""})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown selector key"):
            RunSelector.parse("branch=main")

    def test_bare_term_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            RunSelector.parse("cA")

    def test_select_runs(self, store):
        assert [r["run_id"] for r in select_runs(store, RunSelector())] == \
            ["golden-base", "golden-head"]
        assert [r["run_id"]
                for r in select_runs(store, RunSelector(commit="cB"))] == \
            ["golden-head"]
        assert select_runs(store, RunSelector(commit="nope")) == []


class TestAggregate:
    def test_two_run_cohort_merges_sketches(self, store):
        whole = aggregate(store, RunSelector())
        base = aggregate(store, RunSelector(commit="cA"))
        head = aggregate(store, RunSelector(commit="cB"))
        assert whole.run_ids == ["golden-base", "golden-head"]
        assert whole.n_spans == base.n_spans + head.n_spans
        for chain, cohort in whole.chains.items():
            b = base.chains[chain]
            h = head.chains[chain]
            assert cohort.n_instances == b.n_instances + h.n_instances
            # The cohort sketch must equal the merge of the per-run
            # sketches (exact: bucket counts add).
            assert cohort.e2e.snapshot() == \
                StreamingHistogram.merge_many([b.e2e, h.e2e]).snapshot()
            assert cohort.telescoping_ok()

    def test_empty_cohort(self, store):
        agg = aggregate(store, RunSelector(commit="nope"))
        assert agg.run_ids == []
        assert agg.chains == {}

    def test_render_cohort_smoke(self, store):
        out = render_cohort(aggregate(store, RunSelector()))
        assert "2 runs" in out
        assert "telescoping OK" in out
        assert "d_mon burn" in out


class TestAttributionDiff:
    def test_document_shape(self, store):
        diff = attribution_diff(
            store, RunSelector(commit="cA"), RunSelector(commit="cB")
        )
        assert diff["schema"] == DIFF_SCHEMA
        assert diff["base"]["runs"] == ["golden-base"]
        assert diff["head"]["runs"] == ["golden-head"]
        assert set(diff["chains"]) == {
            "front_ground", "front_objects", "rear_ground", "rear_objects"
        }
        for entry in diff["chains"].values():
            assert entry["telescoping_ok"] == {"base": True, "head": True}
            e2e = entry["e2e"]
            for label in ("p50", "p95"):
                b, h = e2e[f"base_{label}"], e2e[f"head_{label}"]
                assert e2e[f"delta_{label}"] == h - b
                assert e2e[f"ratio_{label}"] == pytest.approx(h / b)
            assert entry["categories"]
            for seg in entry["segments"].values():
                if seg["d_mon"] and seg["head_p95"] is not None:
                    assert seg["head_headroom_ns"] == \
                        seg["d_mon"] - seg["head_p95"]
                    assert seg["head_burn"] == \
                        pytest.approx(seg["head_p95"] / seg["d_mon"])

    def test_diff_against_self_is_flat(self, store):
        diff = attribution_diff(
            store, RunSelector(commit="cA"), RunSelector(commit="cA")
        )
        for entry in diff["chains"].values():
            assert entry["e2e"]["delta_p95"] == 0.0
            assert entry["e2e"]["burn_shift"] == 0.0
            for cat in entry["categories"].values():
                assert cat["delta_p50"] == 0.0
                assert cat["delta_p95"] == 0.0
        assert regressed_categories(diff) == []

    def test_render_diff_smoke(self, store):
        diff = attribution_diff(
            store, RunSelector(commit="cA"), RunSelector(commit="cB")
        )
        out = render_diff(diff)
        assert "attribution diff" in out
        assert "burn shift" in out
        assert "budget burn shifts (p95 vs d_mon)" in out

    def test_regressed_categories_ranked(self):
        diff = {
            "chains": {
                "c1": {"categories": {
                    "queue": {"ratio_p95": 2.0},
                    "compute": {"ratio_p95": 1.1},
                    "network": {"ratio_p95": None},
                }},
                "c2": {"categories": {"queue": {"ratio_p95": 1.5}}},
            }
        }
        assert regressed_categories(diff, threshold=0.30) == [
            ("c1", "queue", 2.0), ("c2", "queue", 1.5)
        ]


class TestGoldenDiff:
    """The pinned two-run diff must stay byte-identical."""

    def diff_bytes(self, wh, tmp_path, name):
        diff = attribution_diff(
            wh, RunSelector(commit="cA"), RunSelector(commit="cB")
        )
        return dump_diff(diff, tmp_path / name).read_bytes()

    def test_matches_committed_golden(self, store, tmp_path):
        assert GOLDEN.is_file(), (
            f"golden missing -- regenerate: {__doc__.splitlines()[-2]}"
        )
        got = self.diff_bytes(store, tmp_path, "diff.json")
        assert got == GOLDEN.read_bytes(), (
            "attribution diff drifted from the committed golden; if the "
            "change is intentional, regenerate with "
            "`PYTHONPATH=src python tests/test_warehouse_query.py --regen`"
        )

    def test_ingest_order_does_not_change_the_bytes(
        self, payloads, tmp_path
    ):
        with SpanWarehouse(":memory:") as reversed_store:
            for manifest, spans in reversed(payloads):
                reversed_store.ingest_run(manifest, spans)
            got = self.diff_bytes(reversed_store, tmp_path, "rev.json")
        assert got == GOLDEN.read_bytes()

    def test_golden_is_canonical_json(self):
        data = json.loads(GOLDEN.read_text(encoding="utf-8"))
        canonical = json.dumps(data, indent=2, sort_keys=True) + "\n"
        assert GOLDEN.read_text(encoding="utf-8") == canonical


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        wh = SpanWarehouse(":memory:")
        for manifest, spans in build_payloads():
            wh.ingest_run(manifest, spans)
        diff = attribution_diff(
            wh, RunSelector(commit="cA"), RunSelector(commit="cB")
        )
        path = dump_diff(diff, GOLDEN)
        wh.close()
        print(f"wrote {path}")
    else:
        sys.exit(pytest.main([__file__, "-q"]))
