"""Vehicle WAL spooler + fleet record log: rotation, ack, eviction,
crash recovery with torn tails, the ack-mark journal, and the replay
round-trip / crash-interleaving properties."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema import SchemaVersionError
from repro.telemetry.records import RecordKind, TelemetryRecord
from repro.telemetry.uplink.wal import (
    RecordLog,
    WAL_MARK_SCHEMA,
    WalConfig,
    WalCorruptionError,
    WalSpooler,
    decode_entry,
    encode_entry,
)


def _rec(source, seq, latency=10):
    return TelemetryRecord(
        kind=RecordKind.SEGMENT, source=source, chain="c", segment="c/s0",
        activation=seq, latency_ns=latency, verdict="ok",
        timestamp_ns=seq * 100, seq=seq,
    )


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
        body = _rec("v0", 3).encode_line()
        assert decode_entry(encode_entry(body)) is not None

    def test_damaged_entry_rejected(self):
        line = encode_entry(_rec("v0", 3).encode_line())
        assert decode_entry(line[:-4]) is None
        assert decode_entry("zz" + line[2:]) is None
        assert decode_entry("short") is None


class TestSpooler:
    def test_append_rotates_segments(self, tmp_path):
        spooler = WalSpooler.open_fresh(_config(tmp_path), "v0")
        for i in range(9):
            spooler.append(_rec("v0", i))
        # 4-record segments: two closed + the active third.
        assert len(spooler.segments) == 3
        assert spooler.pending == 9
        assert len(list((Path(tmp_path) / "wal").glob("wal-*.log"))) == 3

    def test_seq_must_increase(self, tmp_path):
        spooler = WalSpooler.open_fresh(_config(tmp_path), "v0")
        spooler.append(_rec("v0", 5))
        with pytest.raises(ValueError):
            spooler.append(_rec("v0", 5))
        with pytest.raises(ValueError):
            spooler.append(_rec("v0", 2))

    def test_pending_records_order_and_limit(self, tmp_path):
        spooler = WalSpooler.open_fresh(_config(tmp_path), "v0")
        for i in range(7):
            spooler.append(_rec("v0", i))
        assert [r.seq for r in spooler.pending_records()] == list(range(7))
        assert [r.seq for r in spooler.pending_records(limit=3)] == [0, 1, 2]

    def test_ack_releases_and_deletes_covered_segments(self, tmp_path):
        spooler = WalSpooler.open_fresh(_config(tmp_path), "v0")
        for i in range(10):
            spooler.append(_rec("v0", i))
        released = spooler.ack_through(5)
        assert [r.seq for r in released] == [0, 1, 2, 3, 4, 5]
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
            spooler.append(_rec("v0", i))
        assert spooler.evicted > 0
        assert spooler.evicted == len(evicted)
        # Oldest-first: surviving records are the newest.
        survivors = [r.seq for r in spooler.pending_records()]
        assert survivors == sorted(survivors)
        assert set(r.seq for r in evicted) == set(range(10)) - set(survivors)
        assert spooler.total_bytes <= 700 or len(spooler.segments) == 1

    def test_acks_that_keep_pace_still_rotate(self, tmp_path):
        """Rotation counts records written, not records pending: a spool
        whose acks keep pace must not grow its active segment -- exempt
        from ``max_bytes`` -- without bound.  Fails at the parent
        (f90c0e9), which left one 646,726-byte ``wal-00000000.log``."""
        config = _config(tmp_path, segment_max_records=16, max_bytes=64_000)
        spooler = WalSpooler.open_fresh(config, "v0")
        line = encode_entry(_rec("v0", 9_999).encode_line())
        for seq in range(10_000):
            spooler.append(_rec("v0", seq))
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
        spooler.append(_rec("v0", 0))
        assert spooler.pending == 1  # over budget, but never evicted


class TestSpoolerRecovery:
    def test_clean_recovery_resumes(self, tmp_path):
        config = _config(tmp_path)
        spooler = WalSpooler.open_fresh(config, "v0")
        for i in range(6):
            spooler.append(_rec("v0", i))
        spooler.ack_through(1)
        spooler.close()

        recovered, report = WalSpooler.recover(_config(tmp_path), "v0")
        assert report.truncated_lines == 0
        assert report.ack_through == 1
        assert report.last_seq == 5
        # Acked records are not resurrected.
        assert [r.seq for r in recovered.pending_records()] == [2, 3, 4, 5]
        recovered.append(_rec("v0", 6))
        assert recovered.pending == 5

    def test_torn_tail_truncated_and_counted(self, tmp_path):
        config = _config(tmp_path)
        spooler = WalSpooler.open_fresh(config, "v0")
        for i in range(6):
            spooler.append(_rec("v0", i))
        spooler.close()
        _tear_tail(config.directory)

        recovered, report = WalSpooler.recover(_config(tmp_path), "v0")
        assert report.truncated_lines == 1
        assert [r.seq for r in recovered.pending_records()] == [0, 1, 2, 3, 4]
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
        spooler.append_many([_rec("v0", i) for i in range(3)])
        spooler.close()
        path = sorted(config.directory.glob("wal-*.log"))[-1]
        path.write_bytes(path.read_bytes()[:-1])
        recovered, report = WalSpooler.recover(config, "v0")
        assert report.truncated_lines == 1
        assert recovered.pending_seqs() == [0, 1]
        recovered.append_many([_rec("v0", 2), _rec("v0", 3)])
        recovered.close()
        again, report = WalSpooler.recover(config, "v0")
        again.close()
        assert report.truncated_lines == 0
        assert again.pending_seqs() == [0, 1, 2, 3]

    def test_mid_file_corruption_raises(self, tmp_path):
        config = _config(tmp_path, segment_max_records=100)
        spooler = WalSpooler.open_fresh(config, "v0")
        for i in range(5):
            spooler.append(_rec("v0", i))
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
        spooler.append(_rec("v0", 0))
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
        spooler.append_many([_rec("v0", i) for i in range(10)])
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
        spooler.append_many([_rec("v0", i) for i in range(3)])
        for seq in range(3):
            spooler.ack_through(seq)
        assert len(_mark_lines(config)) == 4 + 1  # full: header + 4 marks
        spooler.append_many([_rec("v0", i) for i in range(3, 9)])
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
            spooler.append(_rec("v0", i))
            spooler.ack_through(i)
            assert len(_mark_lines(config)) <= 5 + 1
        assert len(spooler.segments) == 1
        spooler.append_many([_rec("v0", i) for i in range(40, 80)])
        assert len(spooler.segments) > 5
        for i in range(40, 80):
            spooler.ack_through(i)
            assert len(_mark_lines(config)) <= 5 + 1
        spooler.close()
        assert _recovery_report(config).ack_through == 79

    def test_torn_tail_at_every_byte_falls_back_one_mark(self, tmp_path):
        config = _config(tmp_path, segment_max_records=16)
        spooler = WalSpooler.open_fresh(config, "v0")
        spooler.append_many([_rec("v0", i) for i in range(10)])
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
        spooler.append_many([_rec("v0", i) for i in range(6)])
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
        log.append_raw(encode_entry(_rec("v0", 0).encode_line()))
        log.append_marker("v0", 0)
        log.append_raw(encode_entry(_rec("v1", 7).encode_line()))
        log.sync()
        log.close()

        replayed = RecordLog.open_existing(path, fsync="never")
        entries = replayed.replayed
        assert len(entries) == 3
        # Records come back as wire rows (source second, seq last).
        assert entries[0] == (list(_rec("v0", 0).to_wire()), None)
        assert entries[1] == (None, ("v0", 0))
        assert entries[2][0][1] == "v1" and entries[2][0][-1] == 7

    def test_checkpoint_entry_settles_what_precedes_it(self, tmp_path):
        path = Path(tmp_path) / "fleet.log"
        log = RecordLog(path, fsync="never")
        log.append_raw(encode_entry(_rec("v0", 5).encode_line()))
        log.append_marker("v0", -1)
        log.append_raw(encode_entry(_rec("v0", 0).encode_line()))
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
            list(_rec("v0", seq).to_wire()) for seq in (5, 0)
        ]
        assert replayed.nbytes == path.stat().st_size

    def test_intact_settled_line_of_no_known_shape_is_corruption(
        self, tmp_path
    ):
        path = Path(tmp_path) / "fleet.log"
        log = RecordLog(path, fsync="never")
        log.append_raw(encode_entry(_rec("v0", 0).encode_line()))
        log.append_raw(encode_entry('{"not":"a row"}'))
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
            log.append_raw(encode_entry(_rec("v0", seq).encode_line()))
        log.compact(
            [encode_entry(_rec("v0", 3).encode_line())], '["~ck",{"n":1}]'
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
            log.append_raw(encode_entry(_rec("v0", i).encode_line()))
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
    )
    @settings(max_examples=60, deadline=None)
    def test_append_rotate_replay_round_trip(self, n, segment_max, ack, tear):
        """Any append/rotate/ack history -- optionally ending in a torn
        tail -- recovers to exactly the unacked suffix and resumes."""
        with tempfile.TemporaryDirectory() as tmp:
            def config():
                return WalConfig(
                    directory=Path(tmp) / "wal", fsync="never",
                    segment_max_records=segment_max,
                )

            spooler = WalSpooler.open_fresh(config(), "v0")
            for i in range(n):
                spooler.append(_rec("v0", i))
            ack_eff = min(ack, n - 1)
            if ack_eff >= 0:
                released = spooler.ack_through(ack_eff)
                assert [r.seq for r in released] == list(range(ack_eff + 1))
            spooler.close()

            expected = list(range(ack_eff + 1, n))
            torn = 0
            if tear:
                tail = sorted(Path(tmp, "wal").glob("wal-*.log"))[-1]
                lines = tail.read_bytes().split(b"\n")
                # Only a still-pending record line can be mid-write.
                if len(lines) >= 3 and expected and expected[-1] == n - 1:
                    _tear_tail(Path(tmp) / "wal")
                    expected = expected[:-1]
                    torn = 1

            recovered, report = WalSpooler.recover(config(), "v0")
            assert report.truncated_lines == torn
            assert [r.seq for r in recovered.pending_records()] == expected
            assert recovered.ack_mark == ack_eff
            # The spool resumes: the next append must be accepted.
            next_seq = recovered.last_seq + 1
            recovered.append(_rec("v0", next_seq))
            assert recovered.pending_records()[-1].seq == next_seq
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
        """append_many / ack_through / kill (optionally mid-mark-write)
        / recover in any order: every offered seq is in exactly one of
        acked, spooled, evicted, and nothing at or below a fully
        written mark is ever offered again."""
        with tempfile.TemporaryDirectory() as tmp:
            config = WalConfig(
                directory=Path(tmp) / "wal", fsync="never",
                segment_max_records=segment_max, max_bytes=budget,
            )
            offered, acked, evicted = set(), set(), set()
            durable_mark = -1

            def wire(spooler):
                spooler.on_evict = lambda lost: evicted.update(
                    record.seq for record in lost
                )
                return spooler

            def check(spooler):
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
                    batch = [_rec("v0", next_seq + i) for i in range(op[1])]
                    next_seq += op[1]
                    spooler.append_many(batch)
                    offered.update(record.seq for record in batch)
                elif op[0] == "crash":
                    spooler.abandon()
                    spooler = recover()
                else:
                    target = min(spooler.ack_mark + op[1], next_seq - 1)
                    if target <= spooler.ack_mark:
                        continue
                    if op[0] == "ack":
                        released = spooler.ack_through(target)
                        acked.update(record.seq for record in released)
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
