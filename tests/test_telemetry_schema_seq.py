"""Regression tests for two robustness fixes:

1. schema evolution -- snapshot/restore rejects unknown schema versions
   with a clear :class:`SchemaVersionError`, and tolerates unknown
   *extra* fields (additive evolution) with a warning, never a crash;
2. sequence continuity -- duplicates and late-reordered records must
   never inflate gap counts or heartbeat staleness (the at-least-once
   uplink makes both arrivals routine, not exceptional).
"""

import json
import warnings

import pytest

from _telemetry import apply_one, wire_row

from repro.schema import SchemaVersionError
from repro.telemetry.store import (
    MAX_TRACKED_MISSING,
    ChainStateStore,
    StoreConfig,
)


def _segment(source, seq, latency=10, ts=None):
    return wire_row(
        kind="segment", source=source, chain="c", segment="c/s0",
        activation=seq, latency_ns=latency, verdict="ok",
        timestamp_ns=seq * 100 if ts is None else ts, seq=seq,
    )


class TestSchemaVersioning:
    def test_unknown_snapshot_schema_raises_clearly(self):
        snapshot = ChainStateStore().snapshot()
        snapshot["schema"] = "repro-telemetry-store/99"
        with pytest.raises(SchemaVersionError) as err:
            ChainStateStore.restore(snapshot)
        message = str(err.value)
        assert "repro-telemetry-store/99" in message
        assert "repro-telemetry-store/1" in message
        assert err.value.found == "repro-telemetry-store/99"
        # Still a ValueError: existing except-clauses keep working.
        assert isinstance(err.value, ValueError)

    def test_missing_schema_field_raises_not_keyerror(self):
        snapshot = ChainStateStore().snapshot()
        del snapshot["schema"]
        with pytest.raises(SchemaVersionError):
            ChainStateStore.restore(snapshot)

    def test_unknown_extra_fields_warn_but_restore(self):
        store = ChainStateStore(StoreConfig(mk_by_chain={"c": (2, 10)}))
        for i in range(8):
            apply_one(store, _segment("v0", i))
        snapshot = store.snapshot()
        # A future build added fields at several levels: tolerate all.
        snapshot["future_top_level"] = {"x": 1}
        snapshot["config"]["future_knob"] = 7
        snapshot["sources"]["v0"]["future_counter"] = 3
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            restored = ChainStateStore.restore(
                json.loads(json.dumps(snapshot))
            )
        messages = [str(w.message) for w in caught]
        assert any("future_top_level" in m for m in messages)
        assert any("future_knob" in m for m in messages)
        assert any("future_counter" in m for m in messages)
        # The known state survived untouched.
        assert restored.sources["v0"].records == 8
        assert restored.chain_summary() == store.chain_summary()

    def test_clean_snapshot_restores_without_warnings(self):
        store = ChainStateStore()
        apply_one(store, _segment("v0", 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ChainStateStore.restore(store.snapshot())


class TestSequenceContinuity:
    def test_duplicate_never_inflates_gap_count(self):
        store = ChainStateStore()
        for seq in (0, 1, 2):
            apply_one(store, _segment("v0", seq))
        outcome = apply_one(store, _segment("v0", 1))
        source = store.sources["v0"]
        assert outcome.seq_gap == 0
        assert source.seq_gaps == 0
        assert source.duplicates == 1
        assert source.reorders == 0
        assert source.last_seq == 2

    def test_duplicate_never_regresses_heartbeat_staleness(self):
        store = ChainStateStore()
        apply_one(store, _segment("v0", 0, ts=1_000))
        apply_one(store, _segment("v0", 1, ts=2_000))
        # A retransmitted (old) record arrives late: its stale
        # timestamp must not rewind liveness.
        apply_one(store, _segment("v0", 0, ts=1_000))
        assert store.sources["v0"].last_seen_ns == 2_000

    def test_late_reorder_heals_the_gap_exactly_once(self):
        store = ChainStateStore()
        apply_one(store, _segment("v0", 0))
        gap = apply_one(store, _segment("v0", 2))
        assert gap.seq_gap == 1
        source = store.sources["v0"]
        assert source.seq_gaps == 1

        healed = apply_one(store, _segment("v0", 1))
        assert healed.seq_gap == 0
        assert source.duplicates == 0
        assert source.seq_gaps == 0
        assert source.reorders == 1

        # The same late record again is a duplicate, NOT another heal:
        # gap statistics must not go negative or oscillate.
        apply_one(store, _segment("v0", 1))
        assert source.seq_gaps == 0
        assert source.reorders == 1
        assert source.duplicates == 1

    def test_leading_gap_counted_and_healable(self):
        store = ChainStateStore()
        # First-ever record already skipped seqs 0 and 1.
        first = apply_one(store, _segment("v0", 2))
        assert first.seq_gap == 2
        apply_one(store, _segment("v0", 0))
        assert store.sources["v0"].seq_gaps == 1
        assert store.sources["v0"].reorders == 1

    def test_missing_set_is_bounded_but_count_is_exact(self):
        store = ChainStateStore()
        apply_one(store, _segment("v0", 0))
        width = MAX_TRACKED_MISSING + 500
        outcome = apply_one(store, _segment("v0", width + 1))
        source = store.sources["v0"]
        assert outcome.seq_gap == width
        assert source.seq_gaps == width
        assert len(source.missing) == MAX_TRACKED_MISSING
        # An evicted (too-old) gap member cannot heal: it is a
        # duplicate now -- the count stays honest either way.
        apply_one(store, _segment("v0", 1))
        assert source.duplicates == 1
        assert source.seq_gaps == width
        # A tracked member still heals.
        apply_one(store, _segment("v0", width))
        assert source.seq_gaps == width - 1

    def test_continuity_state_survives_snapshot_round_trip(self):
        store = ChainStateStore()
        apply_one(store, _segment("v0", 0))
        apply_one(store, _segment("v0", 3))  # gap {1, 2}
        apply_one(store, _segment("v0", 3))  # duplicate
        restored = ChainStateStore.restore(
            json.loads(json.dumps(store.snapshot()))
        )
        source = restored.sources["v0"]
        assert source.duplicates == 1
        assert source.missing == {1, 2}
        # The restored store heals exactly like the live one would.
        live = apply_one(store, _segment("v0", 1))
        replica = apply_one(restored, _segment("v0", 1))
        assert live.seq_gap == replica.seq_gap
        assert (
            restored.sources["v0"].to_json() == store.sources["v0"].to_json()
        )
