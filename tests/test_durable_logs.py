"""The five durable log files are one implementation (``wal.py``).

WAL segments, the ack-mark journal, the ingest journal, the epoch
ledger and a vehicle's epoch WAL share one format, one scanner and one
fsync-policy check.  Here: the policy check and the torn-header rule,
parametrized across all five; and generated crash points on the two
adaptive logs -- a drawn sequence of operations, the file cut at any
byte (exactly before a newline included), recover, append, recover --
where the recovered state must be the live state after some prefix of
the entries and the append after recovery must survive.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.adaptive import BudgetEpoch, EpochLedger, VehicleEpochAgent
from repro.adaptive.epochs import EpochLedgerError
from repro.faults.degradation import DegradationMode
from repro.telemetry.uplink.transport import encode_epoch_frame
from repro.telemetry.uplink.wal import RecordLog, WalConfig, WalSpooler

_MS = 1_000_000


def _epoch(epoch_id):
    return BudgetEpoch(
        epoch_id=epoch_id, budgets={"c": {"s": (8 + epoch_id) * _MS}}
    )


def _row(seq):
    return ("segment", "v0", "c", "c/s0", seq, 10, "ok", "", seq, seq)


def _frame(epoch_id):
    return encode_epoch_frame("v0", _epoch(epoch_id).to_json())


# ----------------------------------------------------------------------
# One adapter per durable file: open it fresh, recover it (-> torn lines
# counted, state), append one entry.
# ----------------------------------------------------------------------
class _WalSegment:
    name = "wal-00000000.log"

    def open(self, root, fsync="never"):
        return WalSpooler.open_fresh(
            WalConfig(root, fsync=fsync, segment_max_records=4), "v0"
        )

    def recover(self, root):
        spooler, report = WalSpooler.recover(
            WalConfig(root, fsync="never", segment_max_records=4), "v0"
        )
        return spooler, report.truncated_lines, spooler.pending_seqs()

    def append(self, spooler):
        spooler.append_many([_row(spooler.last_seq + 1)])


class _AckMark(_WalSegment):
    name = "ackmark.log"

    def recover(self, root):
        spooler, report = WalSpooler.recover(
            WalConfig(root, fsync="never", segment_max_records=4), "v0"
        )
        return spooler, report.mark_truncated_lines, spooler.ack_mark

    def append(self, spooler):
        spooler.append_many([_row(spooler.last_seq + 1)])
        spooler.ack_through(spooler.last_seq)


class _IngestJournal:
    name = "ingest-wal.log"

    def open(self, root, fsync="never"):
        return RecordLog(root / self.name, fsync=fsync)

    def recover(self, root):
        log = RecordLog.open_existing(root / self.name, fsync="never")
        return log, log.truncated, log.replayed

    def append(self, log):
        log.append_marker("v0", log.entries)
        log.sync()


class _EpochLedger:
    name = "epochs.log"

    def open(self, root, fsync="never"):
        return EpochLedger(root / self.name, fsync=fsync)

    def recover(self, root):
        ledger, report = EpochLedger.recover(root / self.name)
        return ledger, int(report.truncated_tail), ledger.to_json()

    def append(self, ledger):
        ledger.record_epoch(_epoch(ledger.next_epoch_id))


class _VehicleEpochs:
    name = "epochs.log"

    def open(self, root, fsync="never"):
        return VehicleEpochAgent("v0", root, fsync=fsync)

    def recover(self, root):
        agent, report = VehicleEpochAgent.recover("v0", root)
        return agent, int(report.truncated_tail), agent.ledger_json()

    def append(self, agent):
        agent.handle_frame(_frame(agent.highest_seen + 1))


FILES = [_WalSegment(), _AckMark(), _IngestJournal(), _EpochLedger(),
         _VehicleEpochs()]
IDS = ["wal_segment", "ackmark", "ingest_journal", "epoch_ledger",
       "vehicle_epochs"]


@pytest.mark.parametrize("log_file", FILES, ids=IDS)
class TestOnePolicyEveryFile:
    def test_misspelled_fsync_is_refused_before_anything_is_written(
        self, log_file, tmp_path
    ):
        with pytest.raises(ValueError, match="fsync must be one of"):
            log_file.open(tmp_path / "log", fsync="alwys")
        assert not (tmp_path / "log").exists()

    def test_torn_header_starts_the_file_afresh(self, log_file, tmp_path):
        """A file holding only a torn header died while being created:
        it held no entry, so recovery counts one torn line, starts it
        afresh, and what is appended next survives."""
        root = tmp_path / "log"
        log_file.open(root).close()
        fresh, _, empty = log_file.recover(root)
        fresh.close()
        path = root / log_file.name
        path.write_bytes(path.read_bytes()[:9])
        recovered, torn, state = log_file.recover(root)
        assert (torn, state) == (1, empty)
        assert path.read_text().startswith('{"schema":')
        log_file.append(recovered)
        recovered.close()
        again, torn, state = log_file.recover(root)
        again.close()
        assert torn == 0 and state != empty


# ----------------------------------------------------------------------
# Generated crash points on the two adaptive logs
# ----------------------------------------------------------------------
def _crash_and_recover(data, path, snapshots, recover):
    """Cut *path* at a drawn byte (often exactly before a newline),
    recover, and check the state is the live one after the entries
    whose newline survived."""
    raw = path.read_bytes()
    newlines = [i for i, byte in enumerate(raw) if byte == ord("\n")]
    cut = data.draw(
        st.integers(0, len(raw)) | st.sampled_from(newlines), label="cut"
    )
    path.write_bytes(raw[:cut])
    recovered, state = recover()
    entries = max(raw[:cut].count(b"\n") - 1, 0)
    assert state == snapshots[entries], (cut, entries)
    return recovered


def _ledger_ops():
    return st.lists(
        st.tuples(
            st.sampled_from(
                ["epoch", "validated", "rejected", "published", "rollback",
                 "ack"]
            ),
            st.integers(0, 5), st.integers(0, 5),
        ),
        max_size=14,
    )


def _apply_ledger_op(ledger, kind, a, b):
    if kind == "epoch":
        ledger.record_epoch(_epoch(ledger.next_epoch_id))
    elif kind == "validated":
        ledger.record_validated(a, {"n": b})
    elif kind == "rejected":
        ledger.record_rejected(a, f"reason {b}")
    elif kind == "published":
        ledger.record_published(
            a, ("canary", "fleet")[b % 2], tuple(f"veh{i}" for i in range(b))
        )
    elif kind == "rollback":
        ledger.record_rollback(a, b)
    else:
        ledger.record_ack(f"veh{b % 3}", a, ("applied", "deferred")[b % 2])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(ops=_ledger_ops(), data=st.data())
def test_epoch_ledger_recovers_a_prefix_and_keeps_the_next_append(ops, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "epochs.log"
        ledger = EpochLedger(path)
        snapshots = [ledger.to_json()]
        for op in ops:
            size = path.stat().st_size
            try:
                _apply_ledger_op(ledger, *op)
            except EpochLedgerError:
                # Refused by the fold: nothing reached the file.
                assert path.stat().st_size == size
                continue
            snapshots.append(ledger.to_json())
        ledger.close()

        def recover():
            recovered, _ = EpochLedger.recover(path)
            return recovered, recovered.to_json()

        recovered = _crash_and_recover(data, path, snapshots, recover)
        recovered.record_ack("after", 10 ** 6, "applied")
        live = recovered.to_json()
        recovered.close()
        again, report = EpochLedger.recover(path)
        again.close()
        assert not report.truncated_tail
        assert again.to_json() == live


def _vehicle_state(agent):
    return (
        sorted(agent.received), sorted(agent.applied),
        sorted(agent.superseded),
        agent.pending.epoch_id if agent.pending is not None else None,
        agent.active.epoch_id if agent.active is not None else None,
    )


def _vehicle_ops():
    return st.lists(
        st.one_of(
            st.tuples(st.just("frame"), st.integers(-1, 2)),
            st.tuples(st.just("mode"), st.sampled_from(list(DegradationMode))),
        ),
        max_size=14,
    )


@settings(max_examples=120, deadline=None, derandomize=True)
@given(ops=_vehicle_ops(), data=st.data())
def test_vehicle_epochs_recover_a_prefix_and_keep_the_next_append(ops, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        agent = VehicleEpochAgent("v0", root, initial=_epoch(0))
        snapshots = [_vehicle_state(agent)]
        record = agent._record

        def recording(fields):
            record(fields)
            snapshots.append(_vehicle_state(agent))

        agent._record = recording
        for kind, value in ops:
            if kind == "mode":
                agent.set_mode(value)
            else:
                agent.handle_frame(_frame(max(agent.highest_seen + value, 0)))
        agent.kill()

        def recover():
            recovered, _ = VehicleEpochAgent.recover(
                "v0", root, initial=_epoch(0)
            )
            return recovered, _vehicle_state(recovered)

        recovered = _crash_and_recover(
            data, root / "epochs.log", snapshots, recover
        )
        recovered.handle_frame(_frame(recovered.highest_seen + 1))
        live = _vehicle_state(recovered)
        recovered.kill()
        again, report = VehicleEpochAgent.recover(
            "v0", root, initial=_epoch(0)
        )
        again.close()
        assert not report.truncated_tail
        assert _vehicle_state(again) == live
        assert again.ledger_json()["balanced"]
