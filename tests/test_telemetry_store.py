"""Sharded chain-state store: placement, facts, snapshot identity."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _telemetry import apply_one, wire_row

from repro.schema import decode_json, encode_json
from repro.telemetry.records import wire_rows_ok
from repro.telemetry.store import ChainStateStore, StoreConfig


def _segment(source, seq, activation, latency, verdict="ok",
             chain="c", segment="c/s0"):
    return wire_row(
        "segment", source, chain=chain, segment=segment,
        activation=activation, latency_ns=latency, verdict=verdict,
        timestamp_ns=activation * 100 + latency, seq=seq,
    )


def _chain(source, seq, activation, violated, chain="c"):
    return wire_row(
        "chain", source, chain=chain,
        activation=activation, verdict="miss" if violated else "ok",
        timestamp_ns=(activation + 1) * 100, seq=seq,
    )


class TestSharding:
    def test_placement_is_deterministic_and_in_range(self):
        for n_shards in (1, 4, 8, 13):
            for source in ("vehicle-000", "vehicle-017", "scenario"):
                for chain in ("front_objects", "rear_objects"):
                    index = ChainStateStore.shard_index(source, chain, n_shards)
                    assert 0 <= index < n_shards
                    assert index == ChainStateStore.shard_index(
                        source, chain, n_shards
                    )

    def test_keys_land_on_their_shard(self):
        store = ChainStateStore(StoreConfig(n_shards=4))
        apply_one(store, _segment("v0", 0, 0, 10))
        apply_one(store, _segment("v1", 0, 0, 10))
        for shard_i, shard in enumerate(store.shards):
            for source, chain in shard:
                assert ChainStateStore.shard_index(source, chain, 4) == shard_i
        assert store.keys() == [("v0", "c"), ("v1", "c")]


class TestApplyFacts:
    def test_chain_miss_stream_counts_violations(self):
        store = ChainStateStore(StoreConfig(mk_by_chain={"c": (1, 3)}))
        verdicts = [True, True, True, False]
        facts = [
            apply_one(store, _chain("v0", i, i, violated))
            for i, violated in enumerate(verdicts)
        ]
        assert [f.mk_violation for f in facts] == [False, True, True, True]
        assert store.total_violations() == 3

    def test_margin_exhausted_is_episodic(self):
        store = ChainStateStore(StoreConfig(mk_by_chain={"c": (1, 4)}))
        facts = []
        for i, violated in enumerate([True, False, False, False, False, True]):
            facts.append(apply_one(store, _chain("v0", i, i, violated)))
        # Record 0 exhausts the margin (m=1) and the flag fires once; it
        # stays silent while the miss remains in the k=4 window, resets
        # when the window clears (record 4), and record 5 opens a new
        # episode.
        assert [f.margin_exhausted_now for f in facts] == [
            True, False, False, False, False, True
        ]
        assert store.total_violations() == 0

    def test_sequence_gap_reported_once_per_gap(self):
        store = ChainStateStore()
        assert apply_one(store, _segment("v0", 0, 0, 10)).seq_gap == 0
        assert apply_one(store, _segment("v0", 4, 1, 10)).seq_gap == 3
        assert apply_one(store, _segment("v0", 5, 2, 10)).seq_gap == 0
        assert store.sources["v0"].seq_gaps == 3

    def test_reorder_counted_not_gap(self):
        store = ChainStateStore()
        apply_one(store, _segment("v0", 1, 0, 10))
        outcome = apply_one(store, _segment("v0", 0, 1, 10))
        assert outcome.seq_gap == 0
        assert store.sources["v0"].reorders == 1

    def test_latency_budget_windows(self):
        config = StoreConfig(
            budget_by_segment={"c/s0": 100},
            window_records=5,
            latency_windows=2,
        )
        store = ChainStateStore(config)
        streaks = []
        # 4 windows of 5 records, every record over budget: the streak
        # fact fires at exact multiples of latency_windows (2 and 4).
        for i in range(20):
            outcome = apply_one(store, _segment("v0", i, i, 500))
            if outcome.latency_window_over_streak:
                streaks.append((i, outcome.latency_window_over_streak))
        assert streaks == [(9, 2), (19, 4)]

    def test_mode_record_updates_source_level(self):
        store = ChainStateStore()
        apply_one(store, wire_row(
            "mode", "v0", verdict="fault", level="degraded",
            timestamp_ns=5, seq=0,
        ))
        assert store.sources["v0"].level == "degraded"


class TestSnapshotRestore:
    def _populated_store(self):
        store = ChainStateStore(StoreConfig(
            n_shards=4,
            mk_by_chain={"front": (2, 10)},
            budget_by_segment={"front/s0": 150},
        ))
        for i in range(40):
            apply_one(store, _segment(
                f"v{i % 3}", 2 * i, i, 90 + 7 * (i % 11),
                chain="front", segment="front/s0",
            ))
            apply_one(store, _chain(f"v{i % 3}", 2 * i + 1, i, i % 7 == 0,
                                    chain="front"))
        return store

    def test_round_trip_identity_through_json(self):
        store = self._populated_store()
        snapshot = store.snapshot()
        restored = ChainStateStore.restore(json.loads(json.dumps(snapshot)))
        assert restored.snapshot() == snapshot
        assert restored.chain_summary() == store.chain_summary()
        assert restored.segment_percentiles() == store.segment_percentiles()

    def test_restored_store_continues_identically(self):
        store = self._populated_store()
        restored = ChainStateStore.restore(store.snapshot())
        more = [_chain("v9", i, i, i % 2 == 0, chain="front")
                for i in range(12)]
        for record in more:
            a = apply_one(store, record)
            b = apply_one(restored, record)
            assert (a.mk_violation, a.margin, a.seq_gap) == (
                b.mk_violation, b.margin, b.seq_gap
            )
        assert restored.snapshot() == store.snapshot()

    def test_bad_schema_rejected(self):
        store = ChainStateStore()
        snapshot = store.snapshot()
        snapshot["schema"] = "something-else/9"
        with pytest.raises(ValueError):
            ChainStateStore.restore(snapshot)


class TestWireFormat:
    @given(
        latencies=st.lists(
            st.integers(min_value=0, max_value=10**9), min_size=1, max_size=30
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_stream_codec_round_trip(self, latencies):
        rows = [_segment("v0", i, i, lat) for i, lat in enumerate(latencies)]
        text = "\n".join(encode_json(row) for row in rows)
        decoded = [decode_json(line) for line in text.splitlines()]
        assert wire_rows_ok(decoded)
        assert list(map(tuple, decoded)) == rows
