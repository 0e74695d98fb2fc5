"""The ingest journal is base + redo: a compaction (the only rename)
writes the full state, every other checkpoint is one small ``~ck``
entry of ``ingest-wal.log`` holding the watermarks that moved, and a
recovery redoes the record lines in between.

- The crash-interleaving property of ``test_uplink_wal.py`` carried to
  the ingestor: frames, checkpoints, compactions and crashes in any
  order -- a crash may cut the journal anywhere inside the last ``~ck``
  entry, or land on either side of a compaction's rename -- recover to
  the store digest, dedup state and held records of the full-snapshot
  oracle ``_reference/full_snapshot_ingest.py``, and to the store the
  crashed ingestor held live.  Its minimal reproducer: a source first
  heard after the base.
- Chunking invariance: the same kind of schedule (plus overload shed
  nominations) with the frames grouped into flushes any way at all --
  what a gateway step does -- against ``_reference/per_frame_ingest.py``
  applying every frame on its own: equal store snapshot, alert log,
  journal bytes, checkpoint count, shed settlements and ``on_fresh``
  records.
- The self-check: a record line missing from the middle of a closed
  journal (every CRC valid) is refused, not silently redone around.
- The clock-free budgets of the path: ``to_json`` calls per checkpoint,
  ``from_json`` calls per recovery, directory fsyncs per policy.
"""

import collections
import json
import os
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference.full_snapshot_ingest import FullSnapshotIngestor
from _reference.per_frame_ingest import PerFrameIngestor
from _telemetry import wire_row
from repro.schema import SchemaVersionError, encode_json
from repro.telemetry.records import SEQ, SOURCE
from repro.telemetry.service import ServiceConfig, TelemetryService
from repro.telemetry.store import ChainState, StoreConfig
from repro.telemetry.uplink import ingest, wal
from repro.telemetry.uplink.ingest import UplinkIngestor, store_digest
from repro.telemetry.uplink.transport import encode_frame
from repro.telemetry.uplink.wal import (
    WalCorruptionError,
    decode_entry,
    encode_entry,
)

SOURCES = ("v0", "v1", "v2")
CHAINS = ("brake", "steer")
CONFIG = ServiceConfig(store=StoreConfig(
    mk_by_chain={"brake": (2, 10)}, default_budget_ns=150, window_records=4,
))


def _rec(source, seq):
    """A record stream touching two keys per source, every kind the
    store folds, with misses and over-budget latencies sprinkled in."""
    chain = CHAINS[seq % 2]
    if seq % 7 == 3:
        return wire_row(
            kind="mode", source=source, level=f"L{seq % 3}",
            timestamp_ns=(seq + 1) * 100, seq=seq,
        )
    if seq % 3 == 0:
        return wire_row(
            kind="segment", source=source, chain=chain,
            segment="s0", activation=seq, latency_ns=100 + 17 * (seq % 9),
            verdict="ok", timestamp_ns=(seq + 1) * 100, seq=seq,
        )
    return wire_row(
        kind="chain", source=source, chain=chain, activation=seq,
        verdict="miss" if seq % 5 == 0 else "ok",
        timestamp_ns=(seq + 1) * 100, seq=seq,
    )


def _frame(source, frame_id, seqs):
    return encode_frame(
        source, frame_id, 0,
        [encode_entry(encode_json(_rec(source, seq)))
         for seq in seqs],
    )


def _state(ingestor):
    return {
        "digest": store_digest(ingestor.service),
        "dedup": {s: d.to_json() for s, d in sorted(ingestor.dedup.items())},
        "held": {
            source: sorted(held)
            for source, held in sorted(ingestor._held.items()) if held
        },
    }


class _Crash(Exception):
    """Raised by a patched ``os.replace`` standing in for process death."""


_OPS = st.one_of(
    # (source, records in the frame, deliver now / stash for later).
    st.tuples(st.just("frame"), st.integers(0, 2), st.integers(1, 5),
              st.booleans()),
    st.tuples(st.just("late"), st.integers(0, 2)),
    st.tuples(st.just("dup"), st.integers(0, 2)),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("compact")),
    st.tuples(st.just("crash")),
    # Die inside checkpoint(): the ``~ck`` line cut at this fraction,
    # or -- when that checkpoint compacts -- before / after the rename.
    st.tuples(st.just("crash_in_checkpoint"), st.floats(0.0, 1.0),
              st.booleans()),
)


class TestCrashInterleavingProperty:
    @given(ops=st.lists(_OPS, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_recovery_equals_the_full_snapshot_oracle(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            self._run(Path(tmp), ops)

    def _run(self, tmp, ops):
        def recover(cls, directory):
            ingestor, _ = cls.recover(
                directory, CONFIG, fsync="never", checkpoint_every=None
            )
            return ingestor

        def crash(ingestor):
            live = store_digest(ingestor.service)
            ingestor.log._file.close()  # no checkpoint, no fsync
            recovered = recover(type(ingestor), ingestor.directory)
            # Every frame was applied and journaled before the crash.
            assert store_digest(recovered.service) == live
            return recovered

        journal = UplinkIngestor(
            TelemetryService(CONFIG), tmp / "journal", fsync="never",
            checkpoint_every=None,
        )
        oracle = FullSnapshotIngestor(
            TelemetryService(CONFIG), tmp / "oracle", fsync="never",
            checkpoint_every=None,
        )
        next_seq = collections.Counter()
        stashed = collections.defaultdict(list)
        last = {}
        frame_id = 0

        def deliver(payload):
            journal.handle_payload(payload)
            oracle.handle_payload(payload)

        for op in ops:
            if op[0] == "frame":
                source = SOURCES[op[1]]
                seqs = range(next_seq[source], next_seq[source] + op[2])
                next_seq[source] += op[2]
                frame_id += 1
                payload = last[source] = _frame(source, frame_id, seqs)
                if op[3]:
                    deliver(payload)
                else:  # later frames overtake it: their records are held
                    stashed[source].append(payload)
            elif op[0] == "late" and stashed[SOURCES[op[1]]]:
                deliver(stashed[SOURCES[op[1]]].pop(0))
            elif op[0] == "dup" and SOURCES[op[1]] in last:
                deliver(last[SOURCES[op[1]]])
            elif op[0] == "checkpoint":
                journal.checkpoint()
                oracle.checkpoint()
            elif op[0] == "compact":
                journal.log.base_bytes = 0  # outgrown, whatever its size
                journal.checkpoint()
                oracle.checkpoint()
                assert journal.log.nbytes == (
                    journal.log.path.stat().st_size
                )
            elif op[0] == "crash":
                journal, oracle = crash(journal), crash(oracle)
            elif op[0] == "crash_in_checkpoint":
                journal, survived = self._die_in_checkpoint(
                    journal, cut=op[1], after_rename=op[2]
                )
                if survived:
                    oracle.checkpoint()
                journal, oracle = crash(journal), crash(oracle)
            assert _state(journal) == _state(oracle)
        journal.close()
        oracle.close()
        assert _state(recover(UplinkIngestor, journal.directory)) == (
            _state(recover(FullSnapshotIngestor, oracle.directory))
        )

    @staticmethod
    def _die_in_checkpoint(journal, cut, after_rename):
        """Run ``checkpoint()`` and kill it; returns the ingestor to
        crash and whether the checkpoint is on disk."""
        log = journal.log
        compacts = log.nbytes > ingest.JOURNAL_COMPACT_FACTOR * log.base_bytes
        if compacts:
            real = os.replace

            def replace(src, dst):
                if after_rename:
                    real(src, dst)
                raise _Crash()

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(wal.os, "replace", replace)
                with pytest.raises(_Crash):
                    journal.checkpoint()
            return journal, after_rename
        log._file.flush()
        before = log.path.stat().st_size
        journal.checkpoint()
        log._file.close()
        size = log.path.stat().st_size
        # Anywhere from "nothing of the entry" to "all but its newline".
        keep = before + int(cut * (size - 1 - before))
        with open(log.path, "r+b") as handle:
            handle.truncate(keep)
        return journal, False


class TestRedo:
    def _ingestor(self, directory):
        return UplinkIngestor(
            TelemetryService(CONFIG), directory, fsync="never",
            checkpoint_every=None,
        )

    def test_a_source_first_heard_after_the_base_recovers_cold(
        self, tmp_path
    ):
        """Minimal reproducer of the redo range: it starts above the
        base watermark *of each source*, -1 for a source the base never
        heard of.  Started above the lowest base watermark instead (9
        here) it skips v1's records 0..2.  Passes at the parent too,
        whose checkpoint entries held every dirtied key's state."""
        ingestor = self._ingestor(tmp_path)
        ingestor.handle_payload(_frame("v0", 0, range(10)))
        ingestor.checkpoint()  # the base: v0 only
        ingestor.handle_payload(_frame("v1", 1, range(3)))
        ingestor.checkpoint()
        live = json.dumps(ingestor.service.snapshot(), sort_keys=True)
        ingestor.close()
        recovered, report = UplinkIngestor.recover(
            tmp_path, CONFIG, fsync="never", checkpoint_every=None
        )
        assert report.redone_records == 3
        assert json.dumps(
            recovered.service.snapshot(), sort_keys=True
        ) == live
        recovered.close()

    def test_a_record_line_missing_mid_journal_is_refused(self, tmp_path):
        """One intact record line deleted between the base and the
        newest checkpoint: every CRC stays valid, so the scan cannot
        see the gap, but base + redo no longer reach the ``applied``
        count that checkpoint wrote."""
        ingestor = self._ingestor(tmp_path)
        ingestor.handle_payload(_frame("v0", 0, range(4)))
        ingestor.checkpoint()  # the base
        ingestor.handle_payload(_frame("v0", 1, range(4, 8)))
        ingestor.checkpoint()
        ingestor.handle_payload(_frame("v0", 2, range(8, 10)))
        ingestor.close()
        path = tmp_path / "ingest-wal.log"
        lines = path.read_text(encoding="utf-8").split("\n")
        victim = next(
            index for index, line in enumerate(lines[1:], 1)
            if decode_entry(line)[0] != "~wm" and decode_entry(line)[-1] == 6
        )
        assert 1 < victim < len(lines) - 5  # after the base, before the ~ck
        del lines[victim]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(WalCorruptionError, match="applied 7 records"):
            UplinkIngestor.recover(tmp_path, CONFIG, fsync="never")


# ----------------------------------------------------------------------
# One apply per step == one apply per frame
# ----------------------------------------------------------------------
_CHUNKED_OPS = st.one_of(
    _OPS.filter(lambda op: op[0] != "crash_in_checkpoint"),
    # End of a gateway step: flush, sync, (acknowledge).
    st.tuples(st.just("step")),
    # The overload ladder starts / stops nominating a class.
    st.tuples(st.just("shed"), st.booleans()),
)


def _nominate(rows):
    return {row[SEQ] for row in rows if row[SEQ] % 5 == 4}


class _Side:
    """One ingestor under the schedule, with everything it reports."""

    def __init__(self, cls, directory):
        self.cls = cls
        self.fresh = []
        self.shed = []
        self._wire(cls(
            TelemetryService(CONFIG), directory, fsync="never",
            checkpoint_every=3,
        ))

    def _wire(self, ingestor):
        self.ingestor = ingestor
        ingestor.on_fresh = lambda rows: self.fresh.extend(
            (row[SOURCE], row[SEQ], ingestor.service.store.applied)
            for row in rows
        )
        ingestor.on_shed_settled = lambda source, seqs: self.shed.append(
            (source, list(seqs))
        )

    def crash(self):
        self.ingestor.log._file.close()  # no flush, no checkpoint
        recovered, _ = self.cls.recover(
            self.ingestor.directory, CONFIG, fsync="never",
            checkpoint_every=3,
        )
        recovered.checkpoints = self.ingestor.checkpoints
        self._wire(recovered)

    def report(self):
        ingestor = self.ingestor
        ingestor.log.sync()
        service = ingestor.service
        return {
            "store": json.dumps(service.snapshot(), sort_keys=True),
            "alerts": [a.to_json() for a in service.alert_log.alerts],
            "journal": ingestor.log.path.read_bytes(),
            "checkpoints": ingestor.checkpoints,
            "shed": self.shed,
            "state": _state(ingestor),
        }


class TestChunkingInvariance:
    @given(ops=st.lists(_CHUNKED_OPS, min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_flush_per_step_equals_apply_per_frame(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            self._run(Path(tmp), ops)

    def _run(self, tmp, ops):
        stepped = _Side(UplinkIngestor, tmp / "stepped")
        framed = _Side(PerFrameIngestor, tmp / "framed")
        next_seq = collections.Counter()
        stashed = collections.defaultdict(list)
        last = {}
        frame_id = 0
        shed = None
        #: Rows the stepped side had journaled but not applied when it
        #: crashed: recovery applies them without re-firing ``on_fresh``
        #: (soft state), exactly as a crash inside a frame always did.
        untapped = set()

        def deliver(payload):
            stepped.ingestor.ingest_frame(payload, sync=False, shed=shed)
            framed.ingestor.ingest_frame(payload, sync=True, shed=shed)

        def settle():
            stepped.ingestor.flush()
            assert stepped.report() == framed.report()
            applied = [(source, seq) for source, seq, _ in stepped.fresh]
            assert applied == [
                (source, seq) for source, seq, _ in framed.fresh
                if (source, seq) not in untapped
            ]

        for op in ops:
            if op[0] == "frame":
                source = SOURCES[op[1]]
                seqs = range(next_seq[source], next_seq[source] + op[2])
                next_seq[source] += op[2]
                frame_id += 1
                payload = last[source] = _frame(source, frame_id, seqs)
                if op[3]:
                    deliver(payload)
                else:
                    stashed[source].append(payload)
            elif op[0] == "late" and stashed[SOURCES[op[1]]]:
                deliver(stashed[SOURCES[op[1]]].pop(0))
            elif op[0] == "dup" and SOURCES[op[1]] in last:
                deliver(last[SOURCES[op[1]]])
            elif op[0] in ("checkpoint", "compact"):
                for side in (stepped, framed):
                    if op[0] == "compact":
                        side.ingestor.log.base_bytes = 0
                    side.ingestor.checkpoint()
            elif op[0] == "crash":
                untapped.update(
                    (row[1], row[-1]) for row in stepped.ingestor._ready
                )
                stepped.crash()
                framed.crash()
            elif op[0] == "shed":
                shed = _nominate if op[1] else None
            elif op[0] == "step":
                settle()
        settle()
        # ``on_fresh`` never runs ahead of the store: when a record is
        # handed over, it and everything before it has been applied.
        for side in (stepped, framed):
            assert all(
                applied >= index + 1
                for index, (_, _, applied) in enumerate(side.fresh)
            )
        stepped.ingestor.close()
        framed.ingestor.close()


# ----------------------------------------------------------------------
# Clock-free budgets
# ----------------------------------------------------------------------
def _wide_rec(vehicle, chain, seq):
    return wire_row(
        kind="chain", source=f"veh{vehicle:03d}", chain=chain,
        activation=seq, verdict="ok", timestamp_ns=(seq + 1) * 100, seq=seq,
    )


class TestCheckpointWorkIsProportionalToWhatChanged:
    def test_to_json_per_dirty_key_and_from_json_per_distinct_key(
        self, tmp_path, monkeypatch
    ):
        """200 keys, every frame touches 2: a checkpoint between
        compactions encodes no key however many it dirtied, a
        compaction each key once, and a recovery decodes each distinct
        key of the base once and redoes the rest from the record
        lines."""
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            ChainState, "to_json", counted("to_json", ChainState.to_json)
        )
        monkeypatch.setattr(
            ChainState, "from_json",
            classmethod(counted("from_json", ChainState.from_json.__func__)),
        )
        ingestor = UplinkIngestor(
            TelemetryService(ServiceConfig()), tmp_path, fsync="never",
            checkpoint_every=None,
        )
        for vehicle in range(100):  # 100 sources x 2 chains
            ingestor.handle_payload(encode_frame(
                f"veh{vehicle:03d}", 0, 0,
                [encode_entry(encode_json(
                    _wide_rec(vehicle, chain, seq)
                )) for seq, chain in enumerate(CHAINS)],
            ))
        ingestor.checkpoint()  # the base: a full snapshot
        assert calls["to_json"] == 200

        checkpoints = 12
        next_seq = collections.Counter()
        for round_no in range(checkpoints):
            calls.clear()
            for vehicle in (round_no % 5, 50 + round_no % 3):
                next_seq[vehicle] += 2
                ingestor.handle_payload(encode_frame(
                    f"veh{vehicle:03d}", 1 + round_no, 0,
                    [encode_entry(encode_json(_wide_rec(
                        vehicle, chain, next_seq[vehicle] + i
                    ))) for i, chain in enumerate(CHAINS)],
                ))
            ingestor.checkpoint()
            assert calls["to_json"] == 0
        live = store_digest(ingestor.service)
        ingestor.close()

        calls.clear()
        recovered, report = UplinkIngestor.recover(
            tmp_path, ServiceConfig(), fsync="never", checkpoint_every=None
        )
        assert report.fragments_read == 1 + checkpoints
        assert report.redone_records == 4 * checkpoints
        assert report.journal_bytes == (tmp_path / "ingest-wal.log").stat().st_size
        assert calls["from_json"] == 200
        assert store_digest(recovered.service) == live

        calls.clear()
        recovered.log.base_bytes = 0  # outgrown: the next one compacts
        recovered.checkpoint()
        assert calls["to_json"] == 200
        recovered.close()
        calls.clear()
        again, report = UplinkIngestor.recover(
            tmp_path, ServiceConfig(), fsync="never", checkpoint_every=None
        )
        assert (report.fragments_read, report.redone_records) == (1, 0)
        assert calls["from_json"] == 200
        assert store_digest(again.service) == live
        again.close()


class TestCompactionDurability:
    @pytest.mark.parametrize(
        "policy,dir_fsyncs", [("always", 1), ("rotate", 1), ("never", 0)]
    )
    def test_rename_is_followed_by_one_directory_fsync(
        self, tmp_path, monkeypatch, policy, dir_fsyncs
    ):
        """Under any policy but ``never`` the journal's creation and a
        compaction's rename are each made durable -- file, then
        directory -- before anything is appended to the new inode; a
        frame and a checkpoint between compactions never touch the
        directory."""
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append(
                "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            )
            real_fsync(fd)

        monkeypatch.setattr(wal.os, "fsync", fsync)
        ingestor = UplinkIngestor(
            TelemetryService(CONFIG), tmp_path, fsync=policy,
            checkpoint_every=None,
        )
        # Frames are acknowledged out of this file before any compaction.
        assert synced == ["file", "dir"][:2 * dir_fsyncs]
        del synced[:]
        ingestor.handle_payload(_frame("v0", 0, range(4)))
        assert "dir" not in synced
        del synced[:]
        ingestor.checkpoint()  # no base yet: compacts
        # The tmp file's contents first, then the rename.
        assert synced == ["file", "dir"][:2 * dir_fsyncs]
        assert not (tmp_path / "ingest-wal.tmp").exists()

        ingestor.handle_payload(_frame("v0", 1, range(4, 8)))
        del synced[:]
        ingestor.checkpoint()  # on top of the base: one append, no rename
        assert synced == ["file"][:dir_fsyncs]
        del synced[:]
        ingestor.close()
        assert "dir" not in synced


class TestFormatRefusals:
    def test_directory_of_a_pre_journal_build_is_refused(self, tmp_path):
        """A ``/1`` directory keeps its state in ``checkpoint.json``
        beside a near-empty log; replaying only that log would silently
        lose it."""
        old = FullSnapshotIngestor(
            TelemetryService(CONFIG), tmp_path, fsync="never",
            checkpoint_every=1,
        )
        old.handle_payload(_frame("v0", 0, range(3)))
        old.close()
        assert (tmp_path / "checkpoint.json").exists()
        with pytest.raises(SchemaVersionError) as err:
            UplinkIngestor.recover(tmp_path, CONFIG, fsync="never")
        assert "checkpoint.json" in str(err.value)
        assert ingest.CHECKPOINT_SCHEMA in str(err.value)
