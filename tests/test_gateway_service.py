"""FleetGateway unit tests: handshake, rate limiting, receive-window
backpressure, the overload ladder, shed accounting, and crash
recovery."""

import json

import pytest

from _telemetry import wire_row
from repro.schema import encode_json
from repro.telemetry import ServiceConfig, TelemetryService
from repro.telemetry.gateway import (
    CLASS_ALERT,
    CLASS_DASHBOARD,
    CLASS_TELEMETRY,
    FleetGateway,
    GatewayConfig,
    GatewayMode,
    OverloadLadder,
    OverloadPolicy,
    RateLimitConfig,
    TokenBucket,
)
from repro.telemetry.records import SEQ, SOURCE
from repro.telemetry.uplink.transport import (
    ACK_SCHEMA,
    REJECT_SCHEMA,
    WELCOME_SCHEMA,
    decode_envelope,
    encode_frame,
    encode_hello,
)
from repro.telemetry.uplink.wal import encode_entry

TOKEN = "unit-secret"


def _rec(seq, source="veh00", kind="segment", verdict="ok"):
    return wire_row(
        kind=kind, source=source, chain="c", segment="c/s0",
        activation=seq, latency_ns=10 + seq, verdict=verdict,
        timestamp_ns=(seq + 1) * 1000, seq=seq,
    )


def _frame(records, frame_id=0, source="veh00", floor=None):
    floor = records[0][SEQ] if floor is None else floor
    return encode_frame(
        source, frame_id, floor,
        [encode_entry(encode_json(r)) for r in records],
    )


def _gateway(tmp_path, **kwargs) -> FleetGateway:
    kwargs.setdefault("token", TOKEN)
    kwargs.setdefault("fsync", "never")
    kwargs.setdefault("checkpoint_every", None)
    return FleetGateway(
        TelemetryService(ServiceConfig()),
        tmp_path / "fleet",
        GatewayConfig(**kwargs),
    )


def _drain_outbox(gateway):
    out = [decode_envelope(p) for _, p in gateway.poll_outbox()]
    assert all(doc is not None for doc in out)
    return out


def _establish(gateway, source="veh00", life=0):
    gateway.handle_payload(encode_hello(source, TOKEN, life), 0)
    docs = _drain_outbox(gateway)
    assert docs[-1]["schema"] == WELCOME_SCHEMA
    return docs[-1]


class TestHandshake:
    def test_hello_with_secret_is_welcomed_with_window(self, tmp_path):
        gateway = _gateway(tmp_path, recv_window=32)
        welcome = _establish(gateway)
        assert welcome["window"] == 32
        assert gateway.sessions == {"veh00": 0}
        assert gateway.stats()["welcomes"] == 1

    def test_wrong_secret_is_terminally_rejected(self, tmp_path):
        gateway = _gateway(tmp_path)
        gateway.handle_payload(encode_hello("veh00", "wrong", 0), 0)
        (doc,) = _drain_outbox(gateway)
        assert doc["schema"] == REJECT_SCHEMA
        assert doc["reason"] == "auth"
        assert gateway.sessions == {}
        assert gateway.stats()["auth_rejects"] == 1

    def test_frame_without_session_asks_for_hello(self, tmp_path):
        gateway = _gateway(tmp_path)
        gateway.handle_payload(_frame([_rec(0), _rec(1)]), 0)
        (doc,) = _drain_outbox(gateway)
        assert doc["schema"] == REJECT_SCHEMA
        assert doc["reason"] == "hello"
        assert gateway.stats()["session_rejects"] == 1
        assert gateway.backlog_records == 0, "nothing may queue sessionless"


class TestRateLimiting:
    def test_flood_gets_reject_rate_with_retry_after(self, tmp_path):
        gateway = _gateway(
            tmp_path, recv_window=1024,
            rate=RateLimitConfig(capacity=8, refill_per_step=2),
        )
        _establish(gateway)
        gateway.handle_payload(_frame([_rec(i) for i in range(8)]), now=1)
        assert not gateway.poll_outbox()  # within budget: queued
        gateway.handle_payload(
            _frame([_rec(i) for i in range(8, 16)], frame_id=1), now=1
        )
        (doc,) = _drain_outbox(gateway)
        assert doc["schema"] == REJECT_SCHEMA
        assert doc["reason"] == "rate"
        # 8 tokens short at 2/step: deterministic 4-step penalty.
        assert doc["retry_after"] == 4
        assert gateway.stats()["rate_rejects"] == 1
        assert gateway.backlog_records == 8, "rejected frame must not queue"

    def test_bucket_refills_deterministically(self):
        bucket = TokenBucket(RateLimitConfig(capacity=4, refill_per_step=2))
        assert bucket.take(4, now=0)
        assert not bucket.take(1, now=0)
        assert bucket.take(2, now=1)  # one step refilled 2


class TestReceiveWindow:
    def test_overrun_answers_with_window_update_not_silence(self, tmp_path):
        gateway = _gateway(
            tmp_path, recv_window=8,
            rate=RateLimitConfig(capacity=4096, refill_per_step=4096),
        )
        _establish(gateway)
        gateway.handle_payload(_frame([_rec(i) for i in range(8)]), 1)
        assert not gateway.poll_outbox()
        gateway.handle_payload(
            _frame([_rec(i) for i in range(8, 16)], frame_id=1), 1
        )
        (doc,) = _drain_outbox(gateway)
        assert doc["schema"] == ACK_SCHEMA
        assert doc["window"] == 0, "full window must be advertised as 0"
        assert gateway.stats()["window_rejects"] == 1
        # Draining the backlog reopens the window on the next ack.
        gateway.step(now=2)
        (ack,) = _drain_outbox(gateway)
        assert ack["schema"] == ACK_SCHEMA
        assert ack["window"] == 8
        assert ack["ack_through"] == 7

    def test_acks_advertise_remaining_room(self, tmp_path):
        gateway = _gateway(tmp_path, recv_window=64)
        _establish(gateway)
        gateway.handle_payload(_frame([_rec(i) for i in range(4)]), 1)
        gateway.step(now=1)
        (ack,) = _drain_outbox(gateway)
        assert ack["window"] == 64  # drained: full room again


class TestOverloadLadder:
    def test_escalation_and_hysteresis(self):
        ladder = OverloadLadder(OverloadPolicy(
            degraded_above=10, safe_above=20, recover_below=4, dwell=3,
        ))
        assert ladder.observe(5, now=0) is GatewayMode.NORMAL
        assert ladder.observe(15, now=1) is GatewayMode.DEGRADED
        assert ladder.observe(25, now=2) is GatewayMode.SAFE
        # Calm streaks de-escalate one rung per dwell, never instantly.
        assert ladder.observe(0, now=3) is GatewayMode.SAFE
        assert ladder.observe(0, now=4) is GatewayMode.SAFE
        assert ladder.observe(0, now=5) is GatewayMode.DEGRADED
        assert ladder.observe(0, now=6) is GatewayMode.DEGRADED
        assert ladder.observe(0, now=7) is GatewayMode.NORMAL
        assert [t[1:3] for t in ladder.transitions] == [
            ("normal", "degraded"), ("degraded", "safe"),
            ("safe", "degraded"), ("degraded", "normal"),
        ]

    def test_sheds_by_rung(self):
        ladder = OverloadLadder(OverloadPolicy(
            degraded_above=1, safe_above=2, recover_below=0, dwell=1,
        ))
        ladder.observe(2, now=0)
        assert ladder.sheds(CLASS_DASHBOARD)
        assert not ladder.sheds(CLASS_TELEMETRY)
        ladder.observe(3, now=1)
        assert ladder.sheds(CLASS_TELEMETRY)
        assert not ladder.sheds(CLASS_ALERT), "alerts are never shed"


class TestShedAccounting:
    def _overloaded_gateway(self, tmp_path):
        return _gateway(
            tmp_path, recv_window=1024, drain_records_per_step=1024,
            rate=RateLimitConfig(capacity=4096, refill_per_step=4096),
            overload=OverloadPolicy(
                degraded_above=2, safe_above=4, recover_below=1, dwell=2,
            ),
        )

    def test_shed_seqs_are_announced_and_counted_by_class(self, tmp_path):
        gateway = self._overloaded_gateway(tmp_path)
        _establish(gateway)
        records = [
            _rec(0, kind="heartbeat"),   # dashboard
            _rec(1),                     # telemetry
            _rec(2, kind="exception"),   # alert
            _rec(3, verdict="miss"),     # alert
            _rec(4),                     # telemetry
            _rec(5, kind="heartbeat"),   # dashboard
        ]
        gateway.handle_payload(_frame(records), 1)
        gateway.step(now=1)  # backlog 6 > safe_above 4 -> SAFE
        (ack,) = _drain_outbox(gateway)
        assert gateway.ladder.mode is GatewayMode.SAFE
        assert ack["shed"] == [0, 1, 4, 5]
        assert ack["ack_through"] == 5, \
            "shed seqs still settle the cumulative ack"
        stats = gateway.stats()
        assert stats["shed_by_class"] == {
            CLASS_DASHBOARD: 2, CLASS_TELEMETRY: 2, CLASS_ALERT: 0,
        }
        # Alert-bearing records reached the store; shed ones did not.
        assert gateway.service.store.applied == 2

    def test_shed_announcement_is_cumulative_across_acks(self, tmp_path):
        gateway = self._overloaded_gateway(tmp_path)
        _establish(gateway)
        gateway.handle_payload(
            _frame([_rec(i, kind="heartbeat") for i in range(6)]), 1
        )
        gateway.step(now=1)
        (first,) = _drain_outbox(gateway)
        assert first["shed"] == [0, 1, 2, 3, 4, 5]
        # A later frame's ack re-announces every shed seq: a lost ack
        # can never silently strand records.  (The follow-up record is
        # an alert, which even a SAFE-mode gateway never sheds.)
        gateway.handle_payload(
            _frame([_rec(6, kind="exception")],
                   frame_id=1, floor=6),
            20,
        )
        gateway.step(now=20)
        (second,) = _drain_outbox(gateway)
        assert second["shed"] == [0, 1, 2, 3, 4, 5]
        assert second["ack_through"] == 6


class TestStepIsTheUnitOfWork:
    def test_one_apply_per_step_and_on_fresh_after_it(
        self, tmp_path, monkeypatch
    ):
        gateway = _gateway(tmp_path)
        for source in ("veh00", "veh01"):
            _establish(gateway, source)
        store = gateway.service.store
        applies = []
        apply_batch = store.apply_batch
        monkeypatch.setattr(
            store, "apply_batch",
            lambda batch: applies.append(len(batch)) or apply_batch(batch),
        )
        seen = []
        gateway.ingestor.on_fresh = lambda rows: seen.append(
            (store.applied, [(row[SOURCE], row[SEQ]) for row in rows])
        )
        gateway.handle_payload(_frame([_rec(0), _rec(1)]), 1)
        gateway.handle_payload(
            _frame([_rec(0, "veh01")], source="veh01"), 1
        )
        gateway.handle_payload(_frame([_rec(2)], frame_id=1, floor=0), 1)
        assert store.applied == 0  # queued, not applied
        gateway.step(now=1)
        assert applies == [4]
        # Fired once, after its records were applied, in apply order.
        assert seen == [(4, [
            ("veh00", 0), ("veh00", 1), ("veh01", 0), ("veh00", 2),
        ])]
        assert len(_drain_outbox(gateway)) == 2  # one ack per source

    def test_wrongly_typed_field_is_counted_by_the_step(self, tmp_path):
        # Reproduces at the parent (082b04c): TypeError out of step().
        gateway = _gateway(tmp_path)
        _establish(gateway)
        body = json.dumps(
            ["segment", "veh00", "c", "s", 1, 100, "ok", "", 5, "7"],
            separators=(",", ":"),
        )
        gateway.handle_payload(
            encode_frame("veh00", 0, 0, [encode_entry(body)]), 1
        )
        gateway.step(now=1)
        assert gateway.ingestor.corrupt_payloads == 1
        assert gateway.service.store.applied == 0
        assert _drain_outbox(gateway) == []  # no ack: the client retries


class TestRecovery:
    def test_recover_loses_sessions_but_not_records(self, tmp_path):
        gateway = _gateway(tmp_path)
        _establish(gateway)
        gateway.handle_payload(_frame([_rec(i) for i in range(6)]), 1)
        gateway.step(now=1)
        _drain_outbox(gateway)
        gateway.ingestor.close()

        recovered, report = FleetGateway.recover(
            tmp_path / "fleet",
            GatewayConfig(token=TOKEN, fsync="never", checkpoint_every=None),
        )
        assert report.replayed_records >= 0
        assert recovered.sessions == {}, "sessions are soft state"
        assert recovered.service.store.applied == 6
        # A pre-crash client's frame is asked to re-handshake.
        recovered.handle_payload(_frame([_rec(6)], frame_id=1, floor=0), 2)
        (doc,) = _drain_outbox(recovered)
        assert doc["schema"] == REJECT_SCHEMA
        assert doc["reason"] == "hello"


class TestConfigValidation:
    def test_bad_windows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            GatewayConfig(recv_window=0)
        with pytest.raises(ValueError):
            GatewayConfig(drain_records_per_step=0)
        with pytest.raises(ValueError):
            RateLimitConfig(capacity=0)
