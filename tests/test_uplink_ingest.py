"""Fleet-side ingestion: dedup watermark exactly-once property,
append-before-ack durability, checkpoint + WAL-replay recovery."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference.dedup_admit import SweepEveryAdmitWatermark
from _telemetry import wire_row
from repro.schema import SchemaVersionError, encode_json
from repro.telemetry.service import ServiceConfig, TelemetryService
from repro.telemetry.store import StoreConfig
from repro.telemetry.uplink.ingest import (
    CHECKPOINT_SCHEMA,
    DedupWatermark,
    UplinkIngestor,
    store_digest,
)
from repro.telemetry.uplink.transport import (
    decode_envelope,
    encode_envelope,
    encode_frame,
)
from repro.telemetry.uplink.wal import decode_entry, encode_entry


def _rec(source, seq, miss=False):
    return wire_row(
        kind="chain", source=source, chain="c",
        activation=seq, verdict="miss" if miss else "ok",
        timestamp_ns=(seq + 1) * 100, seq=seq,
    )


def _frame(source, frame_id, records, floor=0):
    return encode_frame(
        source, frame_id, floor,
        [encode_entry(encode_json(record)) for record in records],
    )


def _service():
    return TelemetryService(ServiceConfig(
        store=StoreConfig(mk_by_chain={"c": (2, 10)})
    ))


class TestDedupWatermark:
    def test_admits_once_then_duplicates(self):
        dedup = DedupWatermark()
        assert dedup.admit(0) is True
        assert dedup.admit(0) is False
        assert dedup.watermark == 0
        assert dedup.admitted == 1
        assert dedup.duplicates == 1

    def test_watermark_sweeps_contiguous_prefix(self):
        dedup = DedupWatermark()
        for seq in (2, 0, 3):
            dedup.admit(seq)
        assert dedup.watermark == 0
        assert dedup.seen == {2, 3}
        dedup.admit(1)
        assert dedup.watermark == 3
        assert dedup.seen == set()

    def test_advance_to_settles_the_window(self):
        dedup = DedupWatermark()
        dedup.admit(5)
        dedup.advance_to(5)
        assert dedup.watermark == 5
        assert dedup.seen == set()
        # Everything at or below the watermark is a duplicate now.
        assert dedup.admit(3) is False
        # A stale advance is a no-op.
        dedup.advance_to(2)
        assert dedup.watermark == 5

    def test_advance_to_sweeps_through_settled_seqs_above(self):
        # Regression: seqs settled out of order above a hole must fold
        # into the watermark when advance_to jumps to the hole's edge,
        # or a windowed client whose remaining records were all
        # shed-announced (never re-offered) deadlocks forever.
        dedup = DedupWatermark()
        for seq in (28, 29, 30, 31):
            dedup.admit(seq)
        assert dedup.watermark == -1
        dedup.advance_to(27)  # floor probe: seqs <= 27 will never come
        assert dedup.watermark == 31
        assert dedup.seen == set()

    def test_from_json_normalizes_pre_sweep_state(self):
        restored = DedupWatermark.from_json(
            {"watermark": 27, "seen": [28, 29, 31]}
        )
        assert restored.watermark == 29
        assert restored.seen == {31}

    def test_snapshot_round_trip(self):
        dedup = DedupWatermark()
        for seq in (0, 1, 5, 9):
            dedup.admit(seq)
        dedup.admit(5)
        restored = DedupWatermark.from_json(
            json.loads(json.dumps(dedup.to_json()))
        )
        assert restored.watermark == dedup.watermark
        assert restored.seen == dedup.seen
        assert restored.admitted == dedup.admitted
        assert restored.duplicates == dedup.duplicates
        assert restored.admit(5) is False
        assert restored.admit(6) is True

    # ------------------------------------------------------------------
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("offer"), st.integers(0, 25)),
                st.tuples(st.just("advance"), st.integers(0, 25)),
            ),
            max_size=150,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_exactly_once_under_any_interleaving(self, ops):
        """Any interleaving of drops / duplicates / reorders (modelled
        as arbitrary offer sequences) admits each seq at most once, and
        never after a settle covered it -- so duplicates can never
        double-count downstream (m,k) misses."""
        dedup = DedupWatermark()
        admitted = []
        model_admitted = set()
        model_settled = -1
        for op, value in ops:
            if op == "offer":
                expect = value > model_settled and value not in model_admitted
                got = dedup.admit(value)
                assert got is expect
                if got:
                    model_admitted.add(value)
                    admitted.append(value)
            else:
                dedup.advance_to(value)
                model_settled = max(model_settled, value)
        assert len(admitted) == len(set(admitted))
        assert dedup.admitted == len(admitted)
        offered = [v for op, v in ops if op == "offer"]
        assert dedup.admitted + dedup.duplicates == len(offered)


    @given(data=st.data(), start=st.integers(-1, 2))
    @settings(max_examples=300, deadline=None)
    def test_admit_equals_the_sweep_every_admit_oracle(self, data, start):
        """The in-order fast paths change no outcome: after any admit /
        ``admit_run`` / ``advance_to`` order, duplicates included, the
        watermark, the seen set and both counters equal those of the
        admit that put every seq into ``seen`` and swept after each one
        (``admit_run`` either admits its whole run, as one oracle admit
        per seq would, or nothing)."""
        fresh = list(range(10))
        replays = data.draw(st.lists(st.sampled_from(fresh), max_size=10))
        ops = [("offer", seq)
               for seq in data.draw(st.permutations(fresh + replays))]
        for at, op in data.draw(st.lists(
            st.tuples(st.integers(0, len(ops)), st.one_of(
                st.tuples(st.just("advance"), st.integers(-1, 10)),
                # admit_run of [watermark + 1 + skew, ...), length n.
                st.tuples(st.just("run"), st.integers(-1, 1),
                          st.integers(0, 4)),
            )),
            max_size=6,
        )):
            ops.insert(at, op)
        dedup = DedupWatermark(start)
        oracle = SweepEveryAdmitWatermark(start)

        def state(w):
            return w.watermark, set(w.seen), w.admitted, w.duplicates

        for op in ops:
            if op[0] == "offer":
                assert dedup.admit(op[1]) is oracle.admit(op[1])
            elif op[0] == "advance":
                dedup.advance_to(op[1])
                oracle.advance_to(op[1])
            else:
                first = dedup.watermark + 1 + op[1]
                run = list(range(first, first + op[2]))
                before = state(dedup)
                if dedup.admit_run(run):
                    assert all([oracle.admit(seq) for seq in run])
                else:
                    assert state(dedup) == before
            assert state(dedup) == state(oracle)


class TestIngestor:
    def test_batch_applied_once_and_acked(self, tmp_path):
        ingestor = UplinkIngestor(_service(), tmp_path, fsync="never")
        payload = _frame("v0", 0, [_rec("v0", i) for i in range(4)])
        ack = decode_envelope(ingestor.handle_payload(payload))
        assert ack["ack_through"] == 3
        assert ingestor.service.store.applied == 4
        # The exact same batch again: all duplicates, same ack, no
        # double-application (this is what keeps (m,k) counts honest).
        before = store_digest(ingestor.service)
        ack2 = decode_envelope(ingestor.handle_payload(payload))
        assert ack2["ack_through"] == 3
        assert ingestor.records_duplicate == 4
        assert store_digest(ingestor.service) == before

    def test_corrupt_and_foreign_payloads_counted_not_acked(self, tmp_path):
        ingestor = UplinkIngestor(_service(), tmp_path, fsync="never")
        assert ingestor.handle_payload("garbage") is None
        assert ingestor.handle_payload(
            encode_envelope({"schema": "other/1", "source": "v0"})
        ) is None
        payload = _frame("v0", 0, [_rec("v0", 0)])
        assert ingestor.handle_payload(payload[:-3] + "###") is None
        assert ingestor.corrupt_payloads == 2
        assert ingestor.foreign_payloads == 1
        assert ingestor.service.store.applied == 0

    # Three reproducers found while sizing the one-parse decode; each
    # fails at the parent (082b04c), where a record line was parsed but
    # its fields never type-checked.
    @staticmethod
    def _typed_wrong(**fields):
        row = ["segment", "veh-0", "c", "s", 1, 100, "ok", "", 5, 7]
        for index, value in fields.items():
            row[int(index[1:])] = value
        body = json.dumps(row, separators=(",", ":"))
        return encode_frame("veh-0", 0, 0, [encode_entry(body)])

    def test_string_seq_is_counted_not_raised(self, tmp_path):
        # Parent: TypeError ('<=' between str and int) out of
        # handle_payload -- a CRC-valid line crashed the fleet server.
        ingestor = UplinkIngestor(_service(), tmp_path, fsync="never")
        assert ingestor.handle_payload(self._typed_wrong(f9="7")) is None
        assert (ingestor.corrupt_payloads, ingestor.frames) == (1, 0)

    def test_string_timestamp_leaves_no_poison_line(self, tmp_path):
        # Parent: the seq is fine, so the line was journaled, *then*
        # apply_batch raised -- and every later recover() replayed it.
        ingestor = UplinkIngestor(_service(), tmp_path, fsync="never")
        assert ingestor.handle_payload(self._typed_wrong(f8="5")) is None
        assert ingestor.corrupt_payloads == 1
        good = _frame("veh-0", 1, [_rec("veh-0", 0)])
        assert ingestor.handle_payload(good) is not None
        ingestor.close()
        lines = (tmp_path / "ingest-wal.log").read_text().splitlines()
        assert len(lines) == 3  # header, the good record, its marker
        recovered, report = UplinkIngestor.recover(
            tmp_path, ingestor.service.config, fsync="never"
        )
        assert report.replayed_fresh == 1
        assert recovered.service.store.applied == 1
        recovered.close()

    def test_boolean_seq_is_not_admitted(self, tmp_path):
        # Parent: admitted (True == 1) and acknowledged as
        # "sack":[[true,true]].
        ingestor = UplinkIngestor(_service(), tmp_path, fsync="never")
        assert ingestor.handle_payload(self._typed_wrong(f9=True)) is None
        assert ingestor.corrupt_payloads == 1 and not ingestor.dedup

    def test_durable_before_ack_without_checkpoint(self, tmp_path):
        """A crash immediately after the ack must not lose the frame:
        the WAL carries it even when no checkpoint ever ran."""
        ingestor = UplinkIngestor(
            _service(), tmp_path, fsync="never", checkpoint_every=None
        )
        ingestor.handle_payload(
            _frame("v0", 0, [_rec("v0", i, miss=i == 2) for i in range(5)])
        )
        live = store_digest(ingestor.service)
        ingestor.close()  # crash: no checkpoint was written
        recovered, report = UplinkIngestor.recover(
            tmp_path, ServiceConfig(
                store=StoreConfig(mk_by_chain={"c": (2, 10)})
            ), fsync="never",
        )
        assert not report.checkpoint_loaded
        assert report.replayed_fresh == 5
        assert store_digest(recovered.service) == live
        assert recovered.dedup["v0"].watermark == 4

    def test_checkpoint_plus_replay_recovery(self, tmp_path):
        ingestor = UplinkIngestor(
            _service(), tmp_path, fsync="never", checkpoint_every=2
        )
        for batch_no in range(5):
            lo = batch_no * 3
            ingestor.handle_payload(_frame(
                "v0", batch_no,
                [_rec("v0", seq, miss=seq % 4 == 0)
                 for seq in range(lo, lo + 3)],
            ))
        assert ingestor.checkpoints == 2
        live = store_digest(ingestor.service)
        ingestor.close()

        recovered, report = UplinkIngestor.recover(
            tmp_path, ServiceConfig(
                store=StoreConfig(mk_by_chain={"c": (2, 10)})
            ), fsync="never",
        )
        assert report.checkpoint_loaded
        # Only the post-checkpoint suffix is replayed from the WAL.
        assert report.replayed_fresh == 3
        assert store_digest(recovered.service) == live
        # The recovered ingestor keeps deduplicating correctly.
        stale = _frame("v0", 9, [_rec("v0", 2)])
        ack = decode_envelope(recovered.handle_payload(stale))
        assert ack["ack_through"] == 14
        assert store_digest(recovered.service) == live

    def test_checkpoint_bytes_are_the_canonical_dump(self, tmp_path):
        """A checkpoint is one CRC-framed ``~ck`` line of the journal,
        C-encoded once and compact, and its bytes are a function of the
        per-source histories alone: not of the order sources first
        showed up in (dict order), nor of a hash seed (set order).  The
        base holds the full state; a later one only the watermarks
        that moved and ``applied`` -- the record lines hold the rest."""
        config = ServiceConfig(store=StoreConfig(mk_by_chain={"c": (2, 10)}))

        def journal_after(directory, order):
            ingestor = UplinkIngestor(
                _service(), directory, fsync="never", checkpoint_every=None
            )
            for source in order:
                ingestor.handle_payload(_frame(
                    source, 0, [_rec(source, seq, miss=seq == 3)
                                for seq in range(7)],
                ))
            ingestor.checkpoint()  # no base yet: the full state
            for source in order:
                ingestor.handle_payload(_frame(source, 1, [_rec(source, 7)]))
            ingestor.checkpoint()  # on top of the base
            lines = (directory / "ingest-wal.log").read_text(
                encoding="utf-8"
            ).split("\n")
            # header, base, per source 1 record + 1 marker, checkpoint.
            assert len(lines) == 2 + 4 + 1 + 1 and lines[-1] == ""
            return ingestor, lines[1], lines[-2]

        ingestor, base_line, redo_line = journal_after(
            tmp_path / "a", ("v1", "v0")
        )
        tag, base = decode_entry(base_line)
        assert tag == "~ck" and base_line[9:] == json.dumps(
            ["~ck", base], separators=(",", ":")
        )
        assert sorted(base) == ["dedup", "schema", "store"]
        assert base["schema"] == CHECKPOINT_SCHEMA
        assert base["store"]["applied"] == 14
        assert base["dedup"] == {
            source: {"watermark": 6, "seen": [], "admitted": 7,
                     "duplicates": 0}
            for source in ("v0", "v1")
        }
        assert redo_line[9:] == json.dumps(["~ck", {
            "schema": CHECKPOINT_SCHEMA,
            "applied": 16,
            "dedup": {s: ingestor.dedup[s].to_json() for s in ("v0", "v1")},
        }], separators=(",", ":"))
        assert len(redo_line) < 200
        assert [p.name for p in (tmp_path / "a").iterdir()] == [
            "ingest-wal.log"
        ]
        live = store_digest(ingestor.service)
        ingestor.close()
        other, *other_lines = journal_after(tmp_path / "b", ("v0", "v1"))
        other.close()
        assert other_lines == [base_line, redo_line]

        recovered, report = UplinkIngestor.recover(
            tmp_path / "a", config, fsync="never", checkpoint_every=None
        )
        assert report.checkpoint_loaded and report.replayed_records == 0
        assert (report.fragments_read, report.redone_records) == (2, 2)
        assert store_digest(recovered.service) == live
        # The recovered handle appends after what it read.
        recovered.handle_payload(_frame("v0", 2, [_rec("v0", 8)]))
        recovered.checkpoint()
        recovered.handle_payload(_frame("v0", 3, [_rec("v0", 9)]))
        live = store_digest(recovered.service)
        recovered.close()
        again, report = UplinkIngestor.recover(
            tmp_path / "a", config, fsync="never"
        )
        assert (report.replayed_records, report.replayed_markers) == (1, 1)
        assert (report.fragments_read, report.redone_records) == (3, 3)
        assert store_digest(again.service) == live

    def test_unknown_checkpoint_schema_refused(self, tmp_path):
        ingestor = UplinkIngestor(
            _service(), tmp_path, fsync="never", checkpoint_every=1
        )
        ingestor.handle_payload(_frame("v0", 0, [_rec("v0", 0)]))
        ingestor.close()
        path = tmp_path / "ingest-wal.log"
        header, entry, _ = path.read_text().split("\n")
        tag, doc = decode_entry(entry)
        assert doc["schema"] == CHECKPOINT_SCHEMA
        doc["schema"] = "repro-uplink-checkpoint/9"
        path.write_text(
            header + "\n" + encode_entry(json.dumps([tag, doc])) + "\n"
        )
        with pytest.raises(SchemaVersionError) as err:
            UplinkIngestor.recover(tmp_path, fsync="never")
        assert "repro-uplink-checkpoint/9" in str(err.value)

    def test_digest_invariant_to_cross_source_interleaving(self, tmp_path):
        batches = {
            source: [_rec(source, seq, miss=seq == 1) for seq in range(6)]
            for source in ("v0", "v1", "v2")
        }
        first = UplinkIngestor(
            _service(), tmp_path / "a", fsync="never"
        )
        for source, records in sorted(batches.items()):
            first.handle_payload(_frame(source, 0, records))
        second = UplinkIngestor(
            _service(), tmp_path / "b", fsync="never"
        )
        for source, records in sorted(batches.items(), reverse=True):
            for i, record in enumerate(records):
                second.handle_payload(_frame(source, i, [record]))
        assert store_digest(first.service) == store_digest(second.service)
