"""Uplink envelopes + the adversarial channel: framing integrity,
deterministic fault injection, and channel accounting."""

from _telemetry import wire_row
from repro.schema import encode_json
from repro.telemetry.uplink.transport import (
    ACK_SCHEMA,
    FRAME_SCHEMA,
    AdversarialChannel,
    ChannelFaultPlan,
    decode_envelope,
    decode_frame,
    encode_ack,
    encode_envelope,
    encode_frame,
)
from repro.telemetry.uplink.wal import encode_entry


def _rec(seq):
    return wire_row(
        kind="segment", source="v0", chain="c", segment="c/s0",
        activation=seq, latency_ns=10, verdict="ok",
        timestamp_ns=seq * 100, seq=seq,
    )


class TestEnvelopes:
    def test_round_trip(self):
        doc = {"schema": "x/1", "k": [1, 2, 3]}
        assert decode_envelope(encode_envelope(doc)) == doc

    def test_any_damage_is_detected(self):
        payload = encode_envelope({"schema": "x/1", "value": 7})
        for broken in (
            payload[:-1],                    # truncated
            payload[:12] + "#" + payload[13:],  # flipped body byte
            "0000000" + payload[7:],         # wrong CRC
            "not an envelope",
            "",
        ):
            assert decode_envelope(broken) is None

    def test_batch_round_trip(self):
        records = [_rec(i) for i in range(5)]
        lines = [encode_entry(encode_json(record))
                 for record in records]
        header, decoded, raw = decode_frame(encode_frame("v0", 3, 0, lines))
        assert header["schema"] == FRAME_SCHEMA
        assert header["source"] == "v0"
        assert header["frame_id"] == 3
        assert decoded == [list(record) for record in records]
        assert raw == lines  # relayed verbatim, no re-encode

    def test_ack_round_trip(self):
        doc = decode_envelope(encode_ack("v0", 3, 41))
        assert doc == {
            "schema": ACK_SCHEMA, "source": "v0",
            "batch_id": 3, "ack_through": 41,
        }

    def test_malformed_batch_records_rejected(self):
        # A well-framed (valid CRC) entry that is not a wire record
        # rejects the whole frame.
        frame = encode_frame("v0", 0, 0, [encode_entry('["nonsense"]')])
        assert decode_frame(frame) is None


class TestChannel:
    def _drain(self, channel, until=200):
        delivered = []
        channel.deliver = lambda frame, now: delivered.append(frame.payload)
        for now in range(until):
            channel.step(now)
        return delivered

    def test_reliable_channel_delivers_in_order(self):
        got = []
        channel = AdversarialChannel(
            "up", lambda frame, now: got.append(frame.payload), seed=1
        )
        for i in range(10):
            channel.send(f"m{i}", "v0", "fleet", now=i)
        for now in range(20):
            channel.step(now)
        assert got == [f"m{i}" for i in range(10)]
        assert channel.stats.delivered == 10

    def test_same_seed_same_faults(self):
        plan = ChannelFaultPlan(drop_prob=0.3, dup_prob=0.2,
                                reorder_prob=0.2, corrupt_prob=0.1)

        def run():
            got = []
            channel = AdversarialChannel(
                "up", lambda frame, now: got.append(frame.payload),
                plan=plan, seed=42,
            )
            for i in range(60):
                channel.send(encode_envelope({"i": i}), "v0", "fleet", now=i)
            for now in range(200):
                channel.step(now)
            return got, channel.stats.to_json()

        first, first_stats = run()
        second, second_stats = run()
        assert first == second
        assert first_stats == second_stats

    def test_drop_and_duplicate_accounting(self):
        plan = ChannelFaultPlan(drop_prob=0.4, dup_prob=0.3)
        got = []
        channel = AdversarialChannel(
            "up", lambda frame, now: got.append(frame.payload),
            plan=plan, seed=7,
        )
        offered = 100
        for i in range(offered):
            channel.send(f"m{i}", "v0", "fleet", now=i)
        for now in range(300):
            channel.step(now)
        stats = channel.stats
        assert stats.dropped > 0 and stats.duplicated > 0
        assert stats.offered == offered
        # Every offered frame is delivered, dropped, or duplicated-extra.
        assert stats.delivered == offered - stats.dropped + stats.duplicated
        assert channel.pending() == 0

    def test_partition_window_blocks_everything(self):
        plan = ChannelFaultPlan(partitions=((5, 10),))
        got = []
        channel = AdversarialChannel(
            "up", lambda frame, now: got.append(frame.payload),
            plan=plan, seed=0,
        )
        for now in range(15):
            channel.send(f"m{now}", "v0", "fleet", now=now)
            channel.step(now)
        channel.step(20)
        lost = {f"m{i}" for i in range(5, 10)}
        assert set(got) == {f"m{i}" for i in range(15)} - lost
        assert channel.stats.partition_dropped == 5
        # The partition window is recorded as an injection (auditable).
        assert [inj.kind for inj in channel.injections] == ["partition"]

    def test_corruption_breaks_the_envelope_not_the_channel(self):
        plan = ChannelFaultPlan(corrupt_prob=0.999)
        got = []
        channel = AdversarialChannel(
            "up", lambda frame, now: got.append(frame.payload),
            plan=plan, seed=3,
        )
        payload = encode_envelope({"schema": "x/1", "value": 1})
        channel.send(payload, "v0", "fleet", now=0)
        for now in range(10):
            channel.step(now)
        assert len(got) == 1
        assert decode_envelope(got[0]) is None

    def test_reordering_changes_delivery_order(self):
        plan = ChannelFaultPlan(reorder_prob=0.5, reorder_extra=10)
        got = []
        channel = AdversarialChannel(
            "up", lambda frame, now: got.append(frame.payload),
            plan=plan, seed=11,
        )
        for i in range(30):
            channel.send(f"m{i:02d}", "v0", "fleet", now=i)
        for now in range(60):
            channel.step(now)
        assert sorted(got) == [f"m{i:02d}" for i in range(30)]
        assert got != sorted(got)
        assert channel.stats.reordered > 0
