"""Property-based differential testing of the uplink protocol.

The windowed-ARQ client must be *observationally identical* to a
fault-free direct ingest: under any mix of drops, duplicates,
reordering, corruption, and partitions it converges to the exact same
fleet store content (byte-identical digest).  ``window_frames`` is
drawn from ``{1, 4}``, so the degenerate one-frame window (stop and
wait) is generated alongside the pipelined one.  Window invariants
ride along on every step: at most ``window_frames`` frames in flight,
and the cumulative ack mark never moves backwards.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import ServiceConfig, TelemetryService
from repro.telemetry.uplink import (
    AdversarialChannel,
    ChannelFaultPlan,
    UplinkIngestor,
    WalConfig,
    WalSpooler,
    WindowedClientConfig,
    WindowedUplinkClient,
    decode_envelope,
)
from repro.telemetry.uplink.ingest import store_digest

N_RECORDS = 48
MAX_STEPS = 4000


def _rows():
    return [
        ("segment", "veh00", "c", "c/s0", seq, 10 + seq, "ok", "",
         (seq + 1) * 1000, seq)
        for seq in range(N_RECORDS)
    ]


def _direct_ingest_digest() -> str:
    reference = TelemetryService(ServiceConfig())
    reference.ingest_batch(_rows())
    reference.poll()
    return store_digest(reference)


def _run_protocol(
    window_frames: int, plan: ChannelFaultPlan, seed: int
) -> str:
    """Rows -> spool -> faulty channel -> ingest; returns the digest."""
    rows = _rows()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ingestor = UplinkIngestor(
            TelemetryService(ServiceConfig()),
            root / "fleet", fsync="never", checkpoint_every=None,
        )
        spooler = WalSpooler.open_fresh(
            WalConfig(root / "veh00", fsync="never"), "veh00"
        )
        spooler.append_many(rows)
        client = None
        down = AdversarialChannel(
            "down",
            lambda frame, now: client.on_ack(
                decode_envelope(frame.payload), now
            ),
            plan=plan, seed=seed,
        )

        def deliver_up(frame, now):
            ack = ingestor.handle_payload(frame.payload, now)
            if ack:  # corrupt payloads produce no ack
                down.send(ack, "fleet", frame.src, now)

        up = AdversarialChannel("up", deliver_up, plan=plan, seed=seed + 1)
        send = lambda payload, now: up.send(payload, "veh00", "fleet", now)
        client = WindowedUplinkClient(spooler, send, WindowedClientConfig(
            frame_records=8, window_frames=window_frames, ack_timeout=8,
            seed=seed,
        ))
        ack_marks = [spooler.ack_mark]
        for now in range(MAX_STEPS):
            client.tick(now)
            up.step(now)
            down.step(now)
            assert len(client._flight) <= window_frames, "window overrun"
            ack_marks.append(spooler.ack_mark)
            if client.idle():
                break
        assert client.idle(), "protocol failed to converge under faults"
        assert ack_marks == sorted(ack_marks), \
            "cumulative ack mark went backwards"
        assert spooler.pending == 0
        ingestor.service.poll()
        return store_digest(ingestor.service)


@st.composite
def fault_plans(draw):
    partitions = ()
    if draw(st.booleans()):
        start = draw(st.integers(min_value=0, max_value=60))
        length = draw(st.integers(min_value=1, max_value=80))
        partitions = ((start, start + length),)
    return ChannelFaultPlan(
        drop_prob=draw(st.floats(0.0, 0.35)),
        dup_prob=draw(st.floats(0.0, 0.3)),
        reorder_prob=draw(st.floats(0.0, 0.3)),
        corrupt_prob=draw(st.floats(0.0, 0.2)),
        jitter_steps=draw(st.integers(0, 3)),
        partitions=partitions,
    )


class TestProtocolEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        plan=fault_plans(), seed=st.integers(0, 2**16),
        window_frames=st.sampled_from((1, 4)),
    )
    def test_windowed_equals_direct_ingest_byte_identical(
        self, plan, seed, window_frames
    ):
        assert _run_protocol(window_frames, plan, seed) == (
            _direct_ingest_digest()
        )

    def test_clean_channel_smoke(self):
        plan = ChannelFaultPlan()
        expected = _direct_ingest_digest()
        assert _run_protocol(1, plan, 7) == expected
        assert _run_protocol(4, plan, 7) == expected
