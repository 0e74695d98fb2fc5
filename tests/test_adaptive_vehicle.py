"""Vehicle epoch agent: durable recv, deferral, exactly-once apply."""

import pytest

from repro.adaptive import BudgetEpoch, SimulatedApplyCrash, VehicleEpochAgent
from repro.faults.degradation import DegradationMode
from repro.telemetry.uplink.transport import (
    EPOCH_ACK_SCHEMA,
    decode_envelope,
    encode_epoch_frame,
)

_MS = 1_000_000


def make_epoch(epoch_id, seg0=8):
    return BudgetEpoch(epoch_id=epoch_id, budgets={
        "pipeline": {"seg0": seg0 * _MS, "seg1": 10 * _MS,
                     "seg2": 12 * _MS},
    })


def frame_for(epoch, vehicle="veh00"):
    return encode_epoch_frame(vehicle, epoch.to_json())


def ack_status(payload):
    doc = decode_envelope(payload)
    assert doc is not None and doc["schema"] == EPOCH_ACK_SCHEMA
    return doc["epoch_id"], doc["status"]


class TestHandleFrame:
    def test_fresh_frame_is_durable_then_applied(self, tmp_path):
        installs = []
        agent = VehicleEpochAgent("veh00", tmp_path, install=installs.append)
        ack = agent.handle_frame(frame_for(make_epoch(1)))
        assert ack_status(ack) == (1, "applied")
        assert agent.active.epoch_id == 1
        assert installs == [make_epoch(1)]
        assert (tmp_path / "epochs.log").exists()
        agent.close()

    def test_stale_and_duplicate_frames_reack_idempotently(self, tmp_path):
        installs = []
        agent = VehicleEpochAgent("veh00", tmp_path, install=installs.append)
        agent.handle_frame(frame_for(make_epoch(2)))
        # Duplicate of the active epoch and an older one both re-ack
        # without re-applying or re-logging.
        entries = (tmp_path / "epochs.log").read_text()
        assert ack_status(agent.handle_frame(frame_for(make_epoch(2)))) \
            == (2, "applied")
        assert ack_status(agent.handle_frame(frame_for(make_epoch(1)))) \
            == (1, "applied")
        assert (tmp_path / "epochs.log").read_text() == entries
        assert len(installs) == 1
        assert agent.stale_frames == 2
        agent.close()

    def test_foreign_and_malformed_frames_ignored(self, tmp_path):
        agent = VehicleEpochAgent("veh00", tmp_path)
        assert agent.handle_frame(frame_for(make_epoch(1), "veh99")) is None
        assert agent.handle_frame("not an envelope") is None
        assert agent.active is None
        agent.close()


class TestDeferredApply:
    def test_degraded_defers_then_applies_exactly_once(self, tmp_path):
        # The satellite scenario: an epoch arriving while the vehicle is
        # DEGRADED is durably parked (acked "deferred" so the server
        # stops resending) and applied exactly once on the transition
        # back to NORMAL.
        installs = []
        agent = VehicleEpochAgent("veh00", tmp_path, install=installs.append)
        agent.set_mode(DegradationMode.DEGRADED)
        ack = agent.handle_frame(frame_for(make_epoch(1)))
        assert ack_status(ack) == (1, "deferred")
        assert agent.active is None and agent.pending is not None
        assert installs == []
        # A resend while still degraded re-acks "deferred".
        assert ack_status(agent.handle_frame(frame_for(make_epoch(1)))) \
            == (1, "deferred")
        ack = agent.set_mode(DegradationMode.NORMAL)
        assert ack_status(ack) == (1, "applied")
        assert installs == [make_epoch(1)]
        assert agent.applies == 1
        # Staying NORMAL is idempotent: nothing left to apply.
        assert agent.set_mode(DegradationMode.NORMAL) is None
        assert agent.applies == 1
        agent.close()

    def test_safe_mode_also_defers(self, tmp_path):
        agent = VehicleEpochAgent("veh00", tmp_path)
        agent.set_mode(DegradationMode.SAFE)
        assert ack_status(agent.handle_frame(frame_for(make_epoch(1)))) \
            == (1, "deferred")
        assert agent.deferrals == 1
        agent.close()

    def test_newer_epoch_supersedes_parked_one(self, tmp_path):
        installs = []
        agent = VehicleEpochAgent("veh00", tmp_path, install=installs.append)
        agent.set_mode(DegradationMode.DEGRADED)
        agent.handle_frame(frame_for(make_epoch(1)))
        agent.handle_frame(frame_for(make_epoch(2)))
        ack = agent.set_mode(DegradationMode.NORMAL)
        assert ack_status(ack) == (2, "applied")
        assert [e.epoch_id for e in installs] == [2]
        assert agent.superseded == {1}
        assert agent.ledger_json()["balanced"]
        agent.close()

    def test_deferral_survives_a_crash(self, tmp_path):
        # Crash while parked: recovery rebuilds the pending epoch and
        # the NORMAL transition still applies it exactly once.
        agent = VehicleEpochAgent("veh00", tmp_path)
        agent.set_mode(DegradationMode.DEGRADED)
        agent.handle_frame(frame_for(make_epoch(1)))
        agent.kill()
        installs = []
        recovered, report = VehicleEpochAgent.recover(
            "veh00", tmp_path, install=installs.append
        )
        assert report.pending_apply
        recovered.mode = DegradationMode.DEGRADED
        assert recovered.apply_pending_if_normal() is None
        recovered.mode = DegradationMode.NORMAL
        ack = recovered.apply_pending_if_normal()
        assert ack_status(ack) == (1, "applied")
        assert [e.epoch_id for e in installs] == [1]
        assert recovered.applies == 1
        recovered.close()


class TestCrashRecovery:
    def test_torn_apply_window_applies_once_on_recovery(self, tmp_path):
        # Die after the durable recv but before the applied marker --
        # the frame was acked never, so the durable state must say
        # "received, pending" and recovery applies exactly once.
        agent = VehicleEpochAgent("veh00", tmp_path)
        agent.handle_frame(frame_for(make_epoch(1)))
        agent.fail_after_recv = True
        with pytest.raises(SimulatedApplyCrash):
            agent.handle_frame(frame_for(make_epoch(2)))
        agent.kill()
        installs = []
        recovered, report = VehicleEpochAgent.recover(
            "veh00", tmp_path, install=installs.append
        )
        assert report.pending_apply
        assert recovered.active.epoch_id == 1
        ack = recovered.apply_pending_if_normal()
        assert ack_status(ack) == (2, "applied")
        assert recovered.active.epoch_id == 2
        # Replayed active epoch installs once, pending epoch once.
        assert [e.epoch_id for e in installs] == [1, 2]
        assert recovered.ledger_json()["balanced"]
        recovered.close()

    def test_torn_tail_receive_never_happened(self, tmp_path):
        agent = VehicleEpochAgent("veh00", tmp_path)
        agent.handle_frame(frame_for(make_epoch(1)))
        agent.handle_frame(frame_for(make_epoch(2)))
        agent.kill()
        path = tmp_path / "epochs.log"
        raw = path.read_bytes()
        last = raw.split(b"\n")[-2]  # half-write the "applied 2" line
        cut = len(raw) - len(last) // 2 - 1
        path.write_bytes(raw[:cut])
        recovered, report = VehicleEpochAgent.recover("veh00", tmp_path)
        assert report.truncated_tail
        # Whatever the torn line was, state is consistent and the
        # server's retries will re-offer anything lost.
        assert recovered.ledger_json()["balanced"]
        recovered.close()

    def test_apply_after_an_unterminated_entry_survives(self, tmp_path):
        """The parked ``recv 2`` line reached the disk without its
        newline: recovery cuts it (that receive never completed), and
        what the vehicle then acks ``applied`` survives the next
        recovery.  Fails at the parent (f90c0e9): its recover loop kept
        the unterminated line as a parked epoch, applying it fused
        ``applied 2`` onto that line, and the next recovery dropped both
        -- the vehicle came back on epoch 1 after acking epoch 2
        ``applied``."""
        agent = VehicleEpochAgent("veh00", tmp_path)
        agent.handle_frame(frame_for(make_epoch(1)))
        agent.set_mode(DegradationMode.DEGRADED)
        agent.handle_frame(frame_for(make_epoch(2)))
        agent.kill()
        path = tmp_path / "epochs.log"
        path.write_bytes(path.read_bytes()[:-1])
        recovered, report = VehicleEpochAgent.recover("veh00", tmp_path)
        assert report.truncated_tail and not report.pending_apply
        assert (recovered.active.epoch_id, recovered.received) == (1, {1})
        assert ack_status(recovered.handle_frame(frame_for(make_epoch(2)))) \
            == (2, "applied")
        recovered.kill()
        again, report = VehicleEpochAgent.recover("veh00", tmp_path)
        again.close()
        assert not report.truncated_tail
        assert again.active.epoch_id == 2
        assert (again.received, again.applied) == ({1, 2}, {1, 2})

    def test_recovery_reinstalls_active_epoch(self, tmp_path):
        agent = VehicleEpochAgent("veh00", tmp_path)
        agent.handle_frame(frame_for(make_epoch(1)))
        agent.kill()
        installs = []
        recovered, report = VehicleEpochAgent.recover(
            "veh00", tmp_path, install=installs.append
        )
        assert not report.pending_apply
        assert recovered.active.epoch_id == 1
        assert [e.epoch_id for e in installs] == [1]
        # The monitors run the recovered budgets, not the factory ones.
        assert installs[0].budgets["pipeline"]["seg0"] == 8 * _MS
        recovered.close()
