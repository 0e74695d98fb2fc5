"""Vehicle WAL spooler + fleet record log: rotation, ack, eviction,
crash recovery with torn tails, the ack-mark journal, the refusal of
rows the fleet would refuse, and the replay round-trip /
crash-interleaving properties against a dict model of seq -> line."""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import schema
from repro.schema import SchemaVersionError, encode_json
from repro.telemetry import ServiceConfig, TelemetryService
from repro.telemetry.records import wire_fields_ok, wire_rows_ok
from repro.telemetry.uplink import (
    UplinkIngestor,
    WindowedClientConfig,
    WindowedUplinkClient,
    decode_envelope,
)
from repro.telemetry.uplink.wal import (
    RecordLog,
    WAL_MARK_SCHEMA,
    WalConfig,
    WalCorruptionError,
    WalSpooler,
    decode_entry,
    encode_entry,
)


def _row(source, seq, latency=10):
    return ("segment", source, "c", "c/s0", seq, latency, "ok", "",
            seq * 100, seq)


def _line(row):
    """The spool's line of *row*: CRC-framed compact JSON."""
    return encode_entry(encode_json(row))


def _seqs(spooler, **kwargs):
    return [seq for seq, _ in spooler.pending_entries(**kwargs)]


def _config(tmp_path, **kwargs):
    kwargs.setdefault("fsync", "never")
    kwargs.setdefault("segment_max_records", 4)
    return WalConfig(directory=Path(tmp_path) / "wal", **kwargs)


def _tear_tail(directory):
    """Chop the newest WAL line in half (simulated mid-write crash)."""
    path = sorted(Path(directory).glob("wal-*.log"))[-1]
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    assert lines[-1] == b""
    last = lines[-2]
    kept = raw[: len(raw) - len(last) - 1]
    path.write_bytes(kept + last[: len(last) // 2])


class TestFraming:
    def test_entry_round_trip(self):
        body = encode_json(_row("v0", 3))
        assert decode_entry(encode_entry(body)) is not None

    def test_damaged_entry_rejected(self):
        line = encode_entry(encode_json(_row("v0", 3)))
        assert decode_entry(line[:-4]) is None
        assert decode_entry("zz" + line[2:]) is None
        assert decode_entry("short") is None


class TestSpooler:
    def test_append_rotates_segments(self, tmp_path):
        spooler = WalSpooler.open_fresh(_config(tmp_path), "v0")
        for i in range(9):
            spooler.append_many([_row("v0", i)])
        # 4-record segments: two closed + the active third.
        assert len(spooler.segments) == 3
        assert spooler.pending == 9
        assert len(list((Path(tmp_path) / "wal").glob("wal-*.log"))) == 3

    def test_seq_must_increase(self, tmp_path):
        spooler = WalSpooler.open_fresh(_config(tmp_path), "v0")
        spooler.append_many([_row("v0", 5)])
        with pytest.raises(ValueError):
            spooler.append_many([_row("v0", 5)])
        with pytest.raises(ValueError):
            spooler.append_many([_row("v0", 2)])

    @pytest.mark.parametrize("poison", [
        _row("v0", 1, latency=1.5),  # a float latency
        ("segment", "v0", "c", "c/s0", 1, 10, "ok", "", 100, True),
        ("segment", "v0", "c", "c/s0", 1, 10, "ok", "", 100, "1"),
        ("bogus", "v0", "c", "c/s0", 1, 10, "ok", "", 100, 1),
        _row("v0", 1)[:9],
        # An object with a row's fields as attributes, not a row.
        SimpleNamespace(kind="segment", source="v0", chain="c",
                        segment="c/s0", activation=1, latency_ns=10,
                        verdict="ok", level="", timestamp_ns=100, seq=1),
    ], ids=["float_latency", "bool_seq", "str_seq", "unknown_kind",
            "nine_fields", "record_object"])
    def test_a_row_the_fleet_would_refuse_is_refused_whole(
        self, tmp_path, poison
    ):
        spooler = WalSpooler.open_fresh(_config(tmp_path), "v0")
        spooler.append_many([_row("v0", 0)])
        path = sorted(spooler.config.directory.glob("wal-*.log"))[-1]
        before = path.read_bytes()
        with pytest.raises(ValueError):
            spooler.append_many([_row("v0", 1), poison])
        # Nothing written, nothing counted, no encoder marker left.
        assert path.read_bytes() == before
        assert spooler.pending_seqs() == [0]
        assert (spooler.last_seq, spooler.appended) == (0, 1)
        assert schema.json_markers == {}
        spooler.append_many([_row("v0", 1)])
        assert spooler.pending_seqs() == [0, 1]

    def test_poison_row_cannot_hold_a_good_row_hostage(self, tmp_path):
        """A row with ``latency_ns=1.5`` once spooled next to a good
        one: every frame carrying it failed the fleet's row check, the
        breaker kept opening and the good seq 0 never reached the
        store.  Refused at the spool, it costs nothing downstream."""
        spooler = WalSpooler.open_fresh(_config(tmp_path), "v0")
        poison = _row("v0", 1, latency=1.5)
        with pytest.raises(ValueError):
            spooler.append_many([_row("v0", 0), poison])
        spooler.append_many([_row("v0", 0)])
        ingestor = UplinkIngestor(
            TelemetryService(ServiceConfig()), Path(tmp_path) / "fleet",
            fsync="never", checkpoint_every=None,
        )
        outbox = []
        client = WindowedUplinkClient(
            spooler, lambda payload, now: outbox.append(payload) or True,
            WindowedClientConfig(),
        )
        for now in range(200):
            client.tick(now)
            while outbox:
                ack = ingestor.handle_payload(outbox.pop(0), now)
                if ack:
                    client.on_ack(decode_envelope(ack), now)
            if client.idle():
                break
        assert client.idle() and client.circuit_opens == 0
        assert ingestor.corrupt_payloads == 0
        assert ingestor.service.store.applied == 1

    def test_pending_entries_order_and_limit(self, tmp_path):
        spooler = WalSpooler.open_fresh(_config(tmp_path), "v0")
        for i in range(7):
            spooler.append_many([_row("v0", i)])
        assert spooler.pending_entries() == [
            (i, _line(_row("v0", i))) for i in range(7)
        ]
        assert _seqs(spooler, limit=3) == [0, 1, 2]
        # Across the segment boundary (4 rows a segment), and past it.
        assert _seqs(spooler, limit=3, above_seq=2) == [3, 4, 5]
        assert _seqs(spooler, above_seq=4) == [5, 6]
        assert _seqs(spooler, above_seq=6) == []

    def test_tuple_and_list_rows_spool_the_same_line(self, tmp_path):
        # One column-wise check; only rows from outside the process
        # (a JSON parse: lists) must also be lists.
        rows = [_row("v0", 0), list(_row("v0", 1))]
        assert wire_fields_ok(rows) and not wire_rows_ok(rows)
        assert wire_rows_ok([list(row) for row in rows])
        spooler = WalSpooler.open_fresh(_config(tmp_path), "v0")
        spooler.append_many([_row("v0", 0), list(_row("v0", 1))])
        assert [line for _, line in spooler.pending_entries()] == [
            _line(list(_row("v0", seq))) for seq in (0, 1)
        ]

    def test_ack_releases_and_deletes_covered_segments(self, tmp_path):
        spooler = WalSpooler.open_fresh(_config(tmp_path), "v0")
        for i in range(10):
            spooler.append_many([_row("v0", i)])
        released = spooler.ack_through(5)
        assert released == [0, 1, 2, 3, 4, 5]
        assert spooler.pending == 4
        # The first closed segment (seqs 0-3) is fully covered: gone.
        assert not (Path(tmp_path) / "wal" / "wal-00000000.log").exists()
        # Cumulative: a stale ack is a no-op.
        assert spooler.ack_through(3) == []
        assert spooler.acked == 6

    def test_eviction_is_counted_and_hooked(self, tmp_path):
        config = _config(tmp_path, max_bytes=700, segment_max_records=2)
        spooler = WalSpooler.open_fresh(config, "v0")
        evicted = []
        spooler.on_evict = evicted.extend
        for i in range(10):
            spooler.append_many([_row("v0", i)])
        assert spooler.evicted > 0
        assert spooler.evicted == len(evicted)
        # Oldest-first: surviving records are the newest.
        survivors = spooler.pending_seqs()
        assert survivors == sorted(survivors)
        assert set(evicted) == set(range(10)) - set(survivors)
        assert spooler.total_bytes <= 700 or len(spooler.segments) == 1

    def test_acks_that_keep_pace_still_rotate(self, tmp_path):
        """Rotation counts records written, not records pending: a spool
        whose acks keep pace must not grow its active segment -- exempt
        from ``max_bytes`` -- without bound.  Fails at the parent
        (f90c0e9), which left one 646,726-byte ``wal-00000000.log``."""
        config = _config(tmp_path, segment_max_records=16, max_bytes=64_000)
        spooler = WalSpooler.open_fresh(config, "v0")
        line = _line(_row("v0", 9_999))
        for seq in range(10_000):
            spooler.append_many([_row("v0", seq)])
            spooler.ack_through(seq)
            if seq % 1000 == 999:
                paths = sorted(config.directory.glob("wal-*.log"))
                header = paths[-1].read_text().split("\n")[0]
                one_segment = len(header) + 1 + 16 * (len(line) + 1)
                on_disk = sum(path.stat().st_size for path in paths)
                assert on_disk <= config.max_bytes + one_segment, seq
        spooler.close()
        assert spooler.evicted == 0 and spooler.acked == 10_000

    def test_active_segment_is_eviction_exempt(self, tmp_path):
        config = _config(tmp_path, max_bytes=1, segment_max_records=100)
        spooler = WalSpooler.open_fresh(config, "v0")
        spooler.append_many([_row("v0", 0)])
        assert spooler.pending == 1  # over budget, but never evicted


class TestSpoolerRecovery:
    def test_clean_recovery_resumes(self, tmp_path):
        config = _config(tmp_path)
        spooler = WalSpooler.open_fresh(config, "v0")
        for i in range(6):
            spooler.append_many([_row("v0", i)])
        spooler.ack_through(1)
        spooler.close()

        recovered, report = WalSpooler.recover(_config(tmp_path), "v0")
        assert report.truncated_lines == 0
        assert report.ack_through == 1
        assert report.last_seq == 5
        # Acked records are not resurrected.
        assert recovered.pending_seqs() == [2, 3, 4, 5]
        recovered.append_many([_row("v0", 6)])
        assert recovered.pending == 5

    def test_torn_tail_truncated_and_counted(self, tmp_path):
        config = _config(tmp_path)
        spooler = WalSpooler.open_fresh(config, "v0")
        for i in range(6):
            spooler.append_many([_row("v0", i)])
        spooler.close()
        _tear_tail(config.directory)

        recovered, report = WalSpooler.recover(_config(tmp_path), "v0")
        assert report.truncated_lines == 1
        assert recovered.pending_seqs() == [0, 1, 2, 3, 4]
        assert recovered.last_seq == 4
        # The repair is physical: a second recovery is clean.
        recovered.close()
        again, report2 = WalSpooler.recover(_config(tmp_path), "v0")
        assert report2.truncated_lines == 0
        assert again.pending == 5

    def test_record_missing_only_its_newline_is_a_torn_tail(self, tmp_path):
        """Its bytes parse, but the write never completed: keeping it
        would fuse the next append onto the same line and lose both."""
        config = _config(tmp_path, segment_max_records=16)
        spooler = WalSpooler.open_fresh(config, "v0")
        spooler.append_many([_row("v0", i) for i in range(3)])
        spooler.close()
        path = sorted(config.directory.glob("wal-*.log"))[-1]
        path.write_bytes(path.read_bytes()[:-1])
        recovered, report = WalSpooler.recover(config, "v0")
        assert report.truncated_lines == 1
        assert recovered.pending_seqs() == [0, 1]
        recovered.append_many([_row("v0", 2), _row("v0", 3)])
        recovered.close()
        again, report = WalSpooler.recover(config, "v0")
        again.close()
        assert report.truncated_lines == 0
        assert again.pending_seqs() == [0, 1, 2, 3]

    def test_mid_file_corruption_raises(self, tmp_path):
        config = _config(tmp_path, segment_max_records=100)
        spooler = WalSpooler.open_fresh(config, "v0")
        for i in range(5):
            spooler.append_many([_row("v0", i)])
        spooler.close()
        path = sorted(config.directory.glob("wal-*.log"))[0]
        lines = path.read_text().split("\n")
        lines[2] = lines[2][:-5] + "XXXXX"  # not the tail: line 3 of 6
        path.write_text("\n".join(lines))
        with pytest.raises(WalCorruptionError):
            WalSpooler.recover(_config(tmp_path, segment_max_records=100), "v0")

    def test_foreign_schema_raises(self, tmp_path):
        config = _config(tmp_path)
        spooler = WalSpooler.open_fresh(config, "v0")
        spooler.append_many([_row("v0", 0)])
        spooler.close()
        path = sorted(config.directory.glob("wal-*.log"))[0]
        lines = path.read_text().split("\n")
        lines[0] = lines[0].replace("repro-uplink-wal/1", "repro-uplink-wal/9")
        path.write_text("\n".join(lines))
        with pytest.raises(SchemaVersionError):
            WalSpooler.recover(_config(tmp_path), "v0")

    def test_refuses_fresh_open_over_existing_spool(self, tmp_path):
        config = _config(tmp_path)
        WalSpooler.open_fresh(config, "v0").close()
        with pytest.raises(FileExistsError):
            WalSpooler.open_fresh(_config(tmp_path), "v0")


def _mark_lines(config):
    return (config.directory / "ackmark.log").read_text().split("\n")[:-1]


def _recovery_report(config):
    spooler, report = WalSpooler.recover(config, "v0")
    spooler.close()
    return report


class TestAckMarkJournal:
    def test_acks_append_and_recover_to_the_last_mark(self, tmp_path):
        config = _config(tmp_path, segment_max_records=16)
        spooler = WalSpooler.open_fresh(config, "v0")
        spooler.append_many([_row("v0", i) for i in range(10)])
        assert len(_mark_lines(config)) == 2  # header + the initial -1
        for seq in (2, 5, 5, 3, 7):  # stale/equal acks write nothing
            spooler.ack_through(seq)
        lines = _mark_lines(config)
        assert WAL_MARK_SCHEMA in lines[0]
        assert [decode_entry(line) for line in lines[1:]] == [
            [-1], [2], [5], [7]
        ]
        spooler.close()

        recovered, report = WalSpooler.recover(config, "v0")
        assert (report.ack_through, report.mark_truncated_lines) == (7, 0)
        assert recovered.pending_seqs() == [8, 9]
        # Recovery compacts, and the journal keeps taking marks.
        assert [decode_entry(ln) for ln in _mark_lines(config)[1:]] == [[7]]
        recovered.ack_through(8)
        recovered.close()
        assert _recovery_report(config).ack_through == 8

    def test_full_journal_compacts_to_the_current_mark(self, tmp_path):
        config = _config(tmp_path, segment_max_records=4)
        spooler = WalSpooler.open_fresh(config, "v0")
        spooler.append_many([_row("v0", i) for i in range(3)])
        for seq in range(3):
            spooler.ack_through(seq)
        assert len(_mark_lines(config)) == 4 + 1  # full: header + 4 marks
        spooler.append_many([_row("v0", i) for i in range(3, 9)])
        spooler.ack_through(5)
        assert [decode_entry(ln) for ln in _mark_lines(config)[1:]] == [[5]]
        assert not (config.directory / "ackmark.tmp").exists()
        spooler.ack_through(6)
        assert [decode_entry(ln) for ln in _mark_lines(config)[1:]] == [
            [5], [6]
        ]
        spooler.close()
        assert _recovery_report(config).ack_through == 6

    def test_journal_never_outgrows_a_segment(self, tmp_path):
        # Acks that keep pace (the segment never fills, nothing rotates)
        # and acks draining a backlog after many rotations alike.
        config = _config(tmp_path, segment_max_records=5)
        spooler = WalSpooler.open_fresh(config, "v0")
        for i in range(40):
            spooler.append_many([_row("v0", i)])
            spooler.ack_through(i)
            assert len(_mark_lines(config)) <= 5 + 1
        assert len(spooler.segments) == 1
        spooler.append_many([_row("v0", i) for i in range(40, 80)])
        assert len(spooler.segments) > 5
        for i in range(40, 80):
            spooler.ack_through(i)
            assert len(_mark_lines(config)) <= 5 + 1
        spooler.close()
        assert _recovery_report(config).ack_through == 79

    def test_torn_tail_at_every_byte_falls_back_one_mark(self, tmp_path):
        config = _config(tmp_path, segment_max_records=16)
        spooler = WalSpooler.open_fresh(config, "v0")
        spooler.append_many([_row("v0", i) for i in range(10)])
        spooler.ack_through(3)
        spooler.ack_through(7)
        spooler.close()
        path = config.directory / "ackmark.log"
        raw = path.read_bytes()
        last = raw.split(b"\n")[-2]
        start = len(raw) - len(last) - 1
        for cut in range(len(last) + 2):
            path.write_bytes(raw[: start + cut])
            recovered, report = WalSpooler.recover(config, "v0")
            recovered.close()
            # Complete with its newline -> 7; anything less -> the
            # previous mark, never lower, and counted unless the line
            # is absent altogether.
            whole = cut == len(last) + 1
            assert report.ack_through == (7 if whole else 3), cut
            assert report.mark_truncated_lines == (
                0 if whole or cut == 0 else 1
            ), cut
            assert recovered.pending_seqs() == list(
                range(report.ack_through + 1, 10)
            )
            # The repair is physical: a second recovery is clean.
            again, report2 = WalSpooler.recover(config, "v0")
            again.close()
            assert report2.mark_truncated_lines == 0
            assert report2.ack_through == report.ack_through

    def test_torn_header_of_a_fresh_journal_is_counted(self, tmp_path):
        config = _config(tmp_path)
        WalSpooler.open_fresh(config, "v0").close()
        path = config.directory / "ackmark.log"
        path.write_bytes(path.read_bytes()[:9])
        report = _recovery_report(config)
        assert (report.ack_through, report.mark_truncated_lines) == (-1, 1)

    def test_mid_file_damage_raises(self, tmp_path):
        config = _config(tmp_path, segment_max_records=16)
        spooler = WalSpooler.open_fresh(config, "v0")
        spooler.append_many([_row("v0", i) for i in range(6)])
        for seq in (1, 2, 3):
            spooler.ack_through(seq)
        spooler.close()
        path = config.directory / "ackmark.log"
        good = path.read_text().split("\n")
        for line_no in (0, 2):  # header, or a mark that is not the tail
            lines = list(good)
            lines[line_no] = lines[line_no][:-3] + "XXX"
            path.write_text("\n".join(lines))
            with pytest.raises(WalCorruptionError):
                WalSpooler.recover(config, "v0")

    def test_foreign_schema_raises(self, tmp_path):
        config = _config(tmp_path)
        WalSpooler.open_fresh(config, "v0").close()
        path = config.directory / "ackmark.log"
        path.write_text(path.read_text().replace(
            WAL_MARK_SCHEMA, "repro-uplink-walmark/9"
        ))
        with pytest.raises(SchemaVersionError):
            WalSpooler.recover(config, "v0")


class TestRecordLog:
    def test_replay_records_and_markers(self, tmp_path):
        path = Path(tmp_path) / "fleet.log"
        log = RecordLog(path, fsync="never")
        log.append_lines([_line(_row("v0", 0))])
        log.append_marker("v0", 0)
        log.append_lines([_line(_row("v1", 7))])
        log.sync()
        log.close()

        replayed = RecordLog.open_existing(path, fsync="never")
        entries = replayed.replayed
        assert len(entries) == 3
        # Records come back as wire rows (source second, seq last).
        assert entries[0] == (list(_row("v0", 0)), None)
        assert entries[1] == (None, ("v0", 0))
        assert entries[2][0][1] == "v1" and entries[2][0][-1] == 7

    def test_checkpoint_entry_settles_what_precedes_it(self, tmp_path):
        path = Path(tmp_path) / "fleet.log"
        log = RecordLog(path, fsync="never")
        log.append_lines([_line(_row("v0", 5))])
        log.append_marker("v0", -1)
        log.append_lines([_line(_row("v0", 0))])
        log.append_checkpoint('["~ck",{"n":1}]')
        log.append_checkpoint('["~ck",{"n":2}]')
        log.append_marker("v0", 0)
        log.close()
        replayed = RecordLog.open_existing(path, fsync="never")
        assert replayed.checkpoints == [{"n": 1}, {"n": 2}]
        assert replayed.replayed == [(None, ("v0", 0))]
        # Nothing is truncated: settled lines stay, undecoded until a
        # recovery redoes them -- the records, in log order.
        assert replayed.settled_rows() == [
            list(_row("v0", seq)) for seq in (5, 0)
        ]
        assert replayed.nbytes == path.stat().st_size

    def test_intact_settled_line_of_no_known_shape_is_corruption(
        self, tmp_path
    ):
        path = Path(tmp_path) / "fleet.log"
        log = RecordLog(path, fsync="never")
        log.append_lines([_line(_row("v0", 0))])
        log.append_lines([encode_entry('{"not":"a row"}')])
        log.append_checkpoint('["~ck",{"n":1}]')
        log.close()
        replayed = RecordLog.open_existing(path, fsync="never")
        with pytest.raises(WalCorruptionError):
            replayed.settled_rows()

    def test_compact_leaves_header_waiting_lines_and_one_entry(
        self, tmp_path
    ):
        path = Path(tmp_path) / "fleet.log"
        log = RecordLog(path, fsync="never")
        for seq in range(4):
            log.append_lines([_line(_row("v0", seq))])
        log.compact(
            [encode_entry(encode_json(_row("v0", 3)))], '["~ck",{"n":1}]'
        )
        log.append_marker("v0", 3)  # the open handle followed the rename
        log.close()
        assert not path.with_suffix(".tmp").exists()
        assert len(path.read_text().split("\n")) == 5
        replayed = RecordLog.open_existing(path, fsync="never")
        assert replayed.checkpoints == [{"n": 1}]
        assert [row[-1] for row in replayed.settled_rows()] == [3]
        assert replayed.replayed == [(None, ("v0", 3))]
        assert replayed.base_bytes == len(encode_entry('["~ck",{"n":1}]')) + 1

    def test_torn_tail_tolerated(self, tmp_path):
        path = Path(tmp_path) / "fleet.log"
        log = RecordLog(path, fsync="never")
        for i in range(4):
            log.append_lines([_line(_row("v0", i))])
        log.sync()
        log.close()
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        path.write_bytes(
            raw[: len(raw) - len(lines[-2]) - 1] + lines[-2][:10]
        )
        replayed = RecordLog.open_existing(path, fsync="never")
        assert replayed.truncated == 1
        assert [entry[0][-1] for entry in replayed.replayed] == [0, 1, 2]


class TestReplayRoundTripProperty:
    @given(
        n=st.integers(min_value=1, max_value=40),
        segment_max=st.integers(min_value=1, max_value=7),
        ack=st.integers(min_value=-1, max_value=45),
        tear=st.booleans(),
        batch=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_append_rotate_replay_round_trip(
        self, n, segment_max, ack, tear, batch
    ):
        """Any append/rotate/ack history -- optionally ending in a torn
        tail -- recovers to exactly the unacked suffix, each seq with
        the line it was spooled as, and resumes."""
        with tempfile.TemporaryDirectory() as tmp:
            def config():
                return WalConfig(
                    directory=Path(tmp) / "wal", fsync="never",
                    segment_max_records=segment_max,
                )

            spooler = WalSpooler.open_fresh(config(), "v0")
            rows = [_row("v0", i) for i in range(n)]
            for start in range(0, n, batch):
                spooler.append_many(rows[start:start + batch])
            model = {row[9]: _line(row) for row in rows}
            assert dict(spooler.pending_entries()) == model
            ack_eff = min(ack, n - 1)
            if ack_eff >= 0:
                released = spooler.ack_through(ack_eff)
                assert released == list(range(ack_eff + 1))
                for seq in released:
                    del model[seq]
            spooler.close()

            torn = 0
            if tear:
                tail = sorted(Path(tmp, "wal").glob("wal-*.log"))[-1]
                lines = tail.read_bytes().split(b"\n")
                # Only a still-pending row's line can be mid-write.
                if len(lines) >= 3 and n - 1 in model:
                    _tear_tail(Path(tmp) / "wal")
                    del model[n - 1]
                    torn = 1

            recovered, report = WalSpooler.recover(config(), "v0")
            assert report.truncated_lines == torn
            assert recovered.pending_entries() == sorted(model.items())
            assert recovered.ack_mark == ack_eff
            # The spool resumes: the next append must be accepted.
            next_row = _row("v0", recovered.last_seq + 1)
            recovered.append_many([next_row])
            assert recovered.pending_entries()[-1] == (
                next_row[9], _line(next_row)
            )
            recovered.close()


class _Crash(Exception):
    """Raised by the torn mark write standing in for process death."""


_OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 9)),
    st.tuples(st.just("ack"), st.integers(1, 12)),
    st.tuples(st.just("crash"), st.just(0)),
    # Die inside ack_through(+n), the mark line cut at this fraction.
    st.tuples(st.just("crash_mid_ack"), st.integers(1, 12),
              st.floats(0.0, 1.0)),
)


class TestCrashInterleavingProperty:
    @given(
        ops=st.lists(_OPS, min_size=1, max_size=30),
        segment_max=st.integers(min_value=1, max_value=6),
        budget=st.one_of(st.none(), st.integers(600, 2000)),
    )
    @settings(max_examples=120, deadline=None)
    def test_ledger_law_and_marks_survive_any_interleaving(
        self, ops, segment_max, budget
    ):
        """append_many / ack_through / eviction / kill (optionally
        mid-mark-write) / recover in any order: ``pending_entries()``
        equals a dict model of seq -> line, every offered seq is in
        exactly one of acked, spooled, evicted, and nothing at or below
        a fully written mark is ever offered again."""
        with tempfile.TemporaryDirectory() as tmp:
            config = WalConfig(
                directory=Path(tmp) / "wal", fsync="never",
                segment_max_records=segment_max, max_bytes=budget,
            )
            offered, acked, evicted = set(), set(), set()
            model = {}
            durable_mark = -1

            def on_evict(lost):
                # Oldest first: the evicted seqs are the model's lowest.
                assert lost == sorted(model)[:len(lost)]
                evicted.update(lost)
                for seq in lost:
                    del model[seq]

            def wire(spooler):
                spooler.on_evict = on_evict
                return spooler

            def check(spooler):
                assert spooler.pending_entries() == sorted(model.items())
                spooled = set(spooler.pending_seqs())
                assert offered == acked | spooled | evicted
                assert len(offered) == (
                    len(acked) + len(spooled) + len(evicted)
                )
                assert spooler.ack_mark == durable_mark
                assert all(seq > durable_mark for seq in spooled)
                lines = (config.directory / "ackmark.log").read_text()
                assert lines.count("\n") <= segment_max + 1

            def recover():
                spooler, report = WalSpooler.recover(config, "v0")
                assert report.ack_through == durable_mark
                check(wire(spooler))
                return spooler

            spooler = wire(WalSpooler.open_fresh(config, "v0"))
            next_seq = 0
            for op in ops:
                if op[0] == "append":
                    batch = [_row("v0", next_seq + i) for i in range(op[1])]
                    next_seq += op[1]
                    offered.update(row[9] for row in batch)
                    model.update((row[9], _line(row)) for row in batch)
                    spooler.append_many(batch)
                elif op[0] == "crash":
                    spooler.abandon()
                    spooler = recover()
                else:
                    target = min(spooler.ack_mark + op[1], next_seq - 1)
                    if target <= spooler.ack_mark:
                        continue
                    if op[0] == "ack":
                        released = spooler.ack_through(target)
                        assert released == [s for s in sorted(model)
                                            if s <= target]
                        acked.update(released)
                        for seq in released:
                            del model[seq]
                        durable_mark = target
                    else:
                        def torn_write(spooler=spooler, cut=op[2]):
                            line = encode_entry(f"[{spooler.ack_mark}]")
                            keep = 1 + int(cut * (len(line) - 2))
                            spooler._mark_file.write(line[:keep])
                            raise _Crash()

                        spooler._write_mark = torn_write
                        with pytest.raises(_Crash):
                            spooler.ack_through(target)
                        spooler.abandon()
                        spooler = recover()
                check(spooler)
            spooler.close()
            recover().close()
