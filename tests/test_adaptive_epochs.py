"""Budget epochs: content identity, JSON round-trip, ledger state machine."""

import pytest

from repro.adaptive import (
    EPOCH_SCHEMA,
    BudgetEpoch,
    EpochLedger,
    EpochLedgerError,
    EpochStatus,
)
from repro.schema import SchemaVersionError
from repro.telemetry.uplink.wal import WalCorruptionError, encode_entry

_MS = 1_000_000

BUDGETS = {"pipeline": {"seg0": 8 * _MS, "seg1": 10 * _MS, "seg2": 12 * _MS}}


def make_epoch(epoch_id=0, budgets=None, **kwargs):
    return BudgetEpoch(
        epoch_id=epoch_id, budgets=budgets or BUDGETS, **kwargs
    )


class TestBudgetEpoch:
    def test_identity_is_the_content_digest(self):
        # A rollback re-publishes the same budgets under a fresh id; the
        # digest must say "same budgets" regardless of id/basis/parent.
        original = make_epoch(1)
        rollback = make_epoch(3, parent_id=1, rollback_of=2,
                              basis={"rollback_of": 2})
        assert original.digest() == rollback.digest()
        changed = make_epoch(
            1, {"pipeline": {**BUDGETS["pipeline"], "seg0": 9 * _MS}}
        )
        assert changed.digest() != original.digest()

    def test_json_round_trip(self):
        epoch = make_epoch(4, parent_id=1, rollback_of=3,
                           basis={"window_records": 512})
        doc = epoch.to_json()
        assert doc["schema"] == EPOCH_SCHEMA
        again = BudgetEpoch.from_json(doc)
        assert again == epoch
        assert again.digest() == epoch.digest()

    def test_from_json_rejects_wrong_schema(self):
        doc = make_epoch().to_json()
        doc["schema"] = "repro-adaptive-epoch/999"
        with pytest.raises(SchemaVersionError):
            BudgetEpoch.from_json(doc)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_epoch(-1)
        with pytest.raises(ValueError):
            BudgetEpoch(epoch_id=0, budgets={})
        with pytest.raises(ValueError):
            make_epoch(0, {"pipeline": {}})
        with pytest.raises(ValueError):
            make_epoch(0, {"pipeline": {"seg0": 0}})
        with pytest.raises(ValueError):
            make_epoch(0, {"pipeline": {"seg0": 1.5}})

    def test_flat_budgets_min_wins_on_shared_segments(self):
        epoch = make_epoch(0, {
            "a": {"shared": 5 * _MS, "only_a": 7 * _MS},
            "b": {"shared": 3 * _MS},
        })
        assert epoch.flat_budgets() == {
            "shared": 3 * _MS, "only_a": 7 * _MS
        }


class TestEpochLedger:
    def test_publish_requires_validation(self, tmp_path):
        # THE invariant: a fleet never runs an epoch that did not pass
        # shadow validation -- the ledger refuses the append outright.
        ledger = EpochLedger(tmp_path / "epochs.log")
        epoch = make_epoch(0)
        ledger.record_epoch(epoch)
        with pytest.raises(EpochLedgerError, match="no shadow"):
            ledger.record_published(0, "canary", ("veh00",))
        ledger.record_validated(0, {"ok": True})
        ledger.record_published(0, "canary", ("veh00",))
        ledger.record_published(0, "fleet", ("veh00", "veh01"))
        assert ledger.last_published("fleet") == 0

    def test_validated_and_rejected_are_exclusive(self, tmp_path):
        ledger = EpochLedger(tmp_path / "epochs.log")
        ledger.record_epoch(make_epoch(0))
        ledger.record_epoch(make_epoch(1))
        ledger.record_validated(0, {})
        with pytest.raises(EpochLedgerError):
            ledger.record_rejected(0, "late change of heart")
        ledger.record_rejected(1, "(m,k) regression")
        with pytest.raises(EpochLedgerError):
            ledger.record_validated(1, {})
        with pytest.raises(EpochLedgerError):
            ledger.record_published(1, "fleet", ())

    def test_status_lifecycle_and_next_id(self, tmp_path):
        ledger = EpochLedger(tmp_path / "epochs.log")
        assert ledger.next_epoch_id == 0
        ledger.record_epoch(make_epoch(0))
        assert ledger.status_of(0) is EpochStatus.DRAFT
        ledger.record_validated(0, {})
        assert ledger.status_of(0) is EpochStatus.VALIDATED
        ledger.record_published(0, "canary", ("veh00",))
        assert ledger.status_of(0) is EpochStatus.CANARY
        ledger.record_published(0, "fleet", ("veh00",))
        assert ledger.status_of(0) is EpochStatus.FLEET
        ledger.record_rollback(0, 1)
        assert ledger.status_of(0) is EpochStatus.ROLLED_BACK
        assert ledger.next_epoch_id == 1

    def test_recover_round_trips_state(self, tmp_path):
        path = tmp_path / "epochs.log"
        ledger = EpochLedger(path)
        ledger.record_epoch(make_epoch(0))
        ledger.record_validated(0, {})
        ledger.record_published(0, "fleet", ("veh00", "veh01"))
        ledger.record_ack("veh00", 0, "applied")
        ledger.record_ack("veh01", 0, "deferred")
        live = ledger.to_json()
        ledger.close()
        recovered, report = EpochLedger.recover(path)
        assert recovered.to_json() == live
        assert not report.truncated_tail
        assert recovered.acks["veh01"] == (0, "deferred")
        recovered.close()

    def test_recover_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "epochs.log"
        ledger = EpochLedger(path)
        ledger.record_epoch(make_epoch(0))
        ledger.record_validated(0, {})
        ledger.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(encode_entry('["ack","veh00",0,"applied"]')[:9])
        recovered, report = EpochLedger.recover(path)
        assert report.truncated_tail
        assert recovered.acks == {}
        # The repaired file appends cleanly.
        recovered.record_ack("veh00", 0, "applied")
        recovered.close()
        again, report2 = EpochLedger.recover(path)
        assert not report2.truncated_tail
        assert again.acks["veh00"] == (0, "applied")
        again.close()

    def test_append_after_an_unterminated_entry_survives(self, tmp_path):
        """An entry whose newline never reached the disk is a torn tail,
        whatever its bytes parse as: recovery cuts it, and the entry
        appended next survives the recovery after that.  Fails at the
        parent (f90c0e9): its recover loop kept the unterminated ack,
        the rollback fused onto that line, and the next recovery dropped
        both as one torn tail -- a flushed ``record_rollback`` lost."""
        path = tmp_path / "epochs.log"
        ledger = EpochLedger(path)
        for epoch_id in range(3):
            ledger.record_epoch(make_epoch(epoch_id))
            ledger.record_validated(epoch_id, {})
        ledger.record_published(0, "fleet", ("veh00",))
        before_ack = ledger.to_json()
        ledger.record_ack("veh00", 0, "applied")
        ledger.close()
        path.write_bytes(path.read_bytes()[:-1])
        recovered, report = EpochLedger.recover(path)
        assert report.truncated_tail
        assert recovered.to_json() == before_ack
        recovered.record_rollback(2, 1)
        live = recovered.to_json()
        recovered.close()
        again, report = EpochLedger.recover(path)
        again.close()
        assert not report.truncated_tail
        assert again.to_json() == live
        assert again.rollbacks == [(2, 1)]

    def test_recover_rejects_mid_file_corruption(self, tmp_path):
        path = tmp_path / "epochs.log"
        ledger = EpochLedger(path)
        ledger.record_epoch(make_epoch(0))
        ledger.record_validated(0, {})
        ledger.close()
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # not the tail
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WalCorruptionError, match="mid-file"):
            EpochLedger.recover(path)

    def test_recover_refuses_unvalidated_publication(self, tmp_path):
        # A ledger claiming a publication with no validation on record
        # is corruption, not a crash: replay must refuse to accept it.
        path = tmp_path / "epochs.log"
        ledger = EpochLedger(path)
        ledger.record_epoch(make_epoch(0))
        ledger.close()
        import json

        body = json.dumps(["published", 0, "fleet", ["veh00"]],
                          separators=(",", ":"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(encode_entry(body) + "\n")
        with pytest.raises(EpochLedgerError, match="unvalidated"):
            EpochLedger.recover(path)
