"""The pipelined windowed-ARQ client: window discipline, cumulative
acks, fast retransmit, and the circuit breaker's single-probe rule."""

from pathlib import Path

from repro.telemetry import ServiceConfig, TelemetryService
from repro.telemetry.uplink import (
    UplinkIngestor,
    WalConfig,
    WalSpooler,
    WindowedClientConfig,
    WindowedUplinkClient,
    decode_envelope,
)
from repro.telemetry.uplink.ingest import store_digest
from repro.telemetry.uplink.transport import decode_frame
from repro.telemetry.uplink.window import CircuitState


def _row(seq, source="veh00"):
    return ("segment", source, "c", "c/s0", seq, 10 + seq, "ok", "",
            (seq + 1) * 1000, seq)


def _spool(tmp_path: Path, rows):
    spooler = WalSpooler.open_fresh(
        WalConfig(tmp_path / "veh00", fsync="never"), "veh00"
    )
    spooler.append_many(rows)
    return spooler


def _ingestor(tmp_path: Path):
    return UplinkIngestor(
        TelemetryService(ServiceConfig()),
        tmp_path / "fleet", fsync="never", checkpoint_every=None,
    )


class TestWindowDiscipline:
    def test_in_flight_never_exceeds_window_and_acks_are_monotone(
        self, tmp_path
    ):
        rows = [_row(i) for i in range(30)]
        spooler = _spool(tmp_path, rows)
        ingestor = _ingestor(tmp_path)
        outbox = []
        client = WindowedUplinkClient(
            spooler,
            lambda payload, now: outbox.append(payload) or True,
            WindowedClientConfig(frame_records=3, window_frames=2),
        )
        ack_marks = []
        for now in range(200):
            client.tick(now)
            assert client.stats()["in_flight_frames"] <= 2
            while outbox:
                ack = ingestor.handle_payload(outbox.pop(0), now)
                if ack:
                    client.on_ack(decode_envelope(ack), now)
            ack_marks.append(spooler.ack_mark)
            if client.idle():
                break
        assert client.idle(), "client never drained"
        assert ack_marks == sorted(ack_marks), "cumulative ack went backwards"
        assert spooler.pending == 0
        reference = TelemetryService(ServiceConfig())
        reference.ingest_batch(rows)
        reference.poll()
        ingestor.service.poll()
        assert store_digest(ingestor.service) == store_digest(reference)

    def test_frames_respect_advertised_peer_window(self, tmp_path):
        spooler = _spool(tmp_path, [_row(i) for i in range(40)])
        outbox = []
        client = WindowedUplinkClient(
            spooler,
            lambda payload, now: outbox.append(payload) or True,
            WindowedClientConfig(frame_records=8, window_frames=4),
        )
        client.peer_window = 5  # gateway advertised 5 records of room
        client.tick(0)
        assert client.inflight_records <= 5
        # The clamp shrinks the frame rather than stalling outright...
        assert client.stats()["in_flight_records"] == 5
        client.peer_window = 0
        outbox.clear()
        client.tick(1)
        # ...and a zero window is an explicit, counted stall.
        assert not outbox
        assert client.window_stalls == 1
        client.tick(2)
        assert client.window_stalls == 1, "one episode, counted once"
        assert client.stats()["in_flight_records"] == 5


class TestFastRetransmit:
    def test_dup_acks_trigger_resend_before_timeout(self, tmp_path):
        rows = [_row(i) for i in range(8)]
        spooler = _spool(tmp_path, rows)
        ingestor = _ingestor(tmp_path)
        outbox = []
        client = WindowedUplinkClient(
            spooler,
            lambda payload, now: outbox.append(payload) or True,
            WindowedClientConfig(
                frame_records=2, window_frames=4,
                ack_timeout=500, dup_ack_threshold=2,
            ),
        )
        client.tick(0)
        frames = list(outbox)
        outbox.clear()
        assert len(frames) == 4
        # Deliver every frame except the second: each later frame acks
        # with the stuck watermark (a duplicate cumulative ack).
        for payload in (frames[0], frames[2], frames[3]):
            ack = ingestor.handle_payload(payload, 1)
            client.on_ack(decode_envelope(ack), 1)
        assert client.dup_acks == 2
        assert client.fast_retransmits == 1, \
            "dup-ack threshold must resend without waiting for the timer"
        # The resent frame is the hole; delivering it drains everything.
        assert len(outbox) == 1
        header, _, _ = decode_frame(outbox[0])
        lost_header, _, _ = decode_frame(frames[1])
        assert header["frame_id"] == lost_header["frame_id"]
        ack = ingestor.handle_payload(outbox.pop(0), 2)
        client.on_ack(decode_envelope(ack), 2)
        assert client.idle()
        assert spooler.pending == 0
        assert ingestor.service.store.applied == len(rows)


class TestFloorProbe:
    def test_all_sacked_flight_over_a_seq_hole_still_converges(
        self, tmp_path
    ):
        """Regression: per-source seq spaces may contain holes (a seq
        never offered).  When every in-flight frame is selectively
        acked but the cumulative ack is gated on such a hole, the
        client must keep re-offering the oldest frame as a floor
        carrier -- without it, neither side ever sends again and the
        protocol deadlocks with durable-but-unreleasable records.
        """
        rows = [_row(i) for i in (0, 1, 2, 3, 5, 6, 7, 8)]  # hole: 4
        spooler = _spool(tmp_path, rows)
        ingestor = _ingestor(tmp_path)
        outbox = []
        client = WindowedUplinkClient(
            spooler,
            lambda payload, now: outbox.append(payload) or True,
            WindowedClientConfig(
                frame_records=4, window_frames=2, ack_timeout=4,
            ),
        )
        for now in range(200):
            client.tick(now)
            while outbox:
                ack = ingestor.handle_payload(outbox.pop(0), now)
                if ack:
                    client.on_ack(decode_envelope(ack), now)
            if client.idle():
                break
        assert client.idle(), \
            "flight wedged: all frames sacked, cumulative ack gated " \
            "on the seq hole"
        assert client.floor_probes >= 1
        assert spooler.pending == 0
        ingestor.service.poll()
        assert ingestor.service.store.applied == len(rows)


class TestHalfOpenSingleProbe:
    def test_breaker_transition_log_is_pinned(self, tmp_path):
        """Regression: while HALF_OPEN exactly one probe frame may fly.

        Pins the full transition log of a blackhole -> heal episode so
        a regression in the probe discipline (e.g. the whole window
        retransmitting out of HALF_OPEN) shows up as a diff here.
        """
        rows = [_row(i) for i in range(32)]
        spooler = _spool(tmp_path, rows)
        ingestor = _ingestor(tmp_path)
        outbox = []
        config = WindowedClientConfig(
            frame_records=4, window_frames=4, ack_timeout=4,
            backoff_base=2, backoff_max=4, failure_threshold=2,
            cooldown=10,
        )
        client = WindowedUplinkClient(
            spooler, lambda payload, now: outbox.append(payload) or True,
            config,
        )

        def reopened_twice():
            return sum(
                1 for _, frm, to, _ in client.transitions
                if frm == "open" and to == "half_open"
            ) >= 2

        for now in range(600):
            client.tick(now)
            if (
                client.circuit is CircuitState.HALF_OPEN
                or client.circuit is CircuitState.OPEN
            ):
                # The probe rule: never more than one frame per step
                # while the breaker is not closed.
                assert len(outbox) <= 1
            healed = reopened_twice()
            while outbox:
                payload = outbox.pop(0)
                if not healed:
                    continue  # blackhole: sends vanish
                ack = ingestor.handle_payload(payload, now)
                if ack:
                    client.on_ack(decode_envelope(ack), now)
            if client.idle():
                break
        assert client.idle(), "client never converged after heal"
        assert [t[1:] for t in client.transitions] == [
            ("closed", "open", "failure threshold"),
            ("open", "half_open", "cooldown elapsed"),
            ("half_open", "open", "probe timeout"),
            ("open", "half_open", "cooldown elapsed"),
            ("half_open", "closed", "ack progress"),
        ]
        assert client.probes >= 2
        assert client.circuit_opens == 2
        assert ingestor.service.store.applied == len(rows)
