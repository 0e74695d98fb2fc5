"""Gateway chaos scenarios end to end, the chaos report's protocol
counters, and the TCP adapter round trip."""

import json

import pytest

from repro.telemetry.gateway import gateway_scenarios
from repro.telemetry.uplink.chaos import ChaosConfig, SEGMENT_MAX_RECORDS

QUICK = ChaosConfig(vehicles=3, frames=10, seed=2025)


def _run(name):
    scenario = {s.name: s for s in gateway_scenarios()}[name]
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        return scenario.make_driver(QUICK, Path(tmp)).run()


class TestGatewayScenarios:
    @pytest.mark.parametrize(
        "name", [s.name for s in gateway_scenarios()]
    )
    def test_scenario_passes_all_checks(self, name):
        result = _run(name)
        failed = [c for c in result.checks if not c["ok"]]
        assert result.ok, f"{name}: {failed}"

    def test_rate_flood_counts_rejections(self):
        result = _run("gw_rate_flood")
        assert result.protocol["gateway_rate_rejects"] > 0
        assert result.protocol["rate_rejects"] > 0  # client saw them too

    def test_window_stall_counts_backpressure(self):
        result = _run("gw_window_stall")
        assert result.protocol["window_stalls"] > 0

    def test_overload_sheds_but_never_alerts(self):
        result = _run("gw_overload_shed")
        shed = result.protocol["shed_by_class"]
        assert shed["alert"] == 0
        assert shed["dashboard"] + shed["telemetry"] > 0
        assert result.protocol["shed_records"] == (
            shed["dashboard"] + shed["telemetry"]
        )

    def test_auth_reject_isolates_the_bad_vehicle(self):
        result = _run("gw_auth_reject")
        assert result.protocol["auth_rejects"] > 0

    def test_crash_midwindow_heals_through_rehandshake(self):
        result = _run("gw_crash_midwindow")
        assert result.protocol["hello_rejects"] > 0
        assert result.protocol["hellos"] >= QUICK.vehicles + 1


class TestDurabilitySyscallBudget:
    def test_clean_episode_pays_one_rename_per_checkpoint_or_compaction(
        self, tmp_path, monkeypatch
    ):
        """The clock-free regression guard of the durability path: on a
        clean 4 x 30 episode an ack mark and a checkpoint are appends,
        so renames are bounded by the compactions of the ack-mark and
        ingest journals, opens by segments + those compactions, and at
        most every fourth checkpoint compacts."""
        import collections
        import os

        from repro.telemetry.gateway.chaos import GatewayChaosScenario
        from repro.telemetry.uplink import ingest, wal

        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(os, "replace", counted("replace", os.replace))
        for module in (wal, ingest):  # shadow the builtin in these only
            monkeypatch.setattr(
                module, "open", counted("open", open), raising=False
            )
        for cls, name in (
            (wal.WalSpooler, "_compact_mark"), (wal.WalSpooler, "_write_mark"),
            (wal.WalSpooler, "_open_segment"), (wal.RecordLog, "compact"),
        ):
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
        config = ChaosConfig(vehicles=4, frames=30, protocol="windowed")
        result = GatewayChaosScenario(name="clean").make_driver(
            config, tmp_path
        ).run()
        assert result.ok, [c for c in result.checks if not c["ok"]]

        checkpoints = result.ingest["checkpoints"]
        mark_compactions = calls["_compact_mark"]
        assert checkpoints >= 20 and calls["_write_mark"] >= 100
        assert 1 <= calls["compact"] <= checkpoints / 4
        assert calls["replace"] <= mark_compactions + calls["compact"]
        # One compaction per vehicle creates the journal, one more per
        # SEGMENT_MAX_RECORDS marks; every other ack is an append.
        assert mark_compactions <= config.vehicles + (
            calls["_write_mark"] // SEGMENT_MAX_RECORDS
        )
        # + 2: the ingest journal, opened live and by the cold-recovery
        # check.
        assert calls["open"] <= (
            calls["_open_segment"] + mark_compactions + calls["compact"] + 2
        )


class TestChaosReport:
    def test_report_round_trips_through_json(self, tmp_path):
        result = _run("gw_window_stall")
        document = {
            "schema": "repro-chaos-report/1",
            "scenarios": [result.to_json()],
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(document))
        report = json.loads(path.read_text())
        assert report == document
        counters = report["scenarios"][0]["protocol"]
        assert counters["frames_sent"] > 0 and "shed_by_class" in counters


class TestGatewayCommandReport:
    def test_report_says_what_a_cold_recovery_read(self, tmp_path, capsys):
        """A recovery that got slow must be visible without a profiler:
        checkpoint entries read and journal bytes scanned."""
        from repro.telemetry.gateway.cli import main

        path = tmp_path / "status.json"
        assert main(["--vehicles", "3", "--frames", "12",
                     "--report", str(path)]) == 0
        recovery = json.loads(path.read_text())["recovery"]
        assert recovery["checkpoint_loaded"] is True
        assert recovery["fragments_read"] >= 1
        assert recovery["journal_bytes"] > 0
        assert f"journal_bytes={recovery['journal_bytes']}" in (
            capsys.readouterr().out
        )

    @pytest.mark.parametrize("flag", ["--vehicles", "--frames"])
    def test_empty_fleet_is_a_usage_error(self, flag, capsys):
        from repro.telemetry.gateway.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([flag, "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestSocketAdapter:
    def test_tcp_round_trip_matches_in_process(self, tmp_path):
        import socket

        from repro.telemetry import ServiceConfig, TelemetryService
        from repro.telemetry.gateway import FleetGateway, GatewayConfig
        from repro.telemetry.gateway.socket_server import (
            GatewaySocketServer,
            recv_payload,
            send_payload,
        )
        from repro.telemetry.uplink.transport import (
            WELCOME_SCHEMA,
            decode_envelope,
            encode_hello,
        )

        gateway = FleetGateway(
            TelemetryService(ServiceConfig()),
            tmp_path / "fleet",
            GatewayConfig(token="tcp-secret", fsync="never",
                          checkpoint_every=None),
        )
        server = GatewaySocketServer(gateway, ("127.0.0.1", 0))
        thread = server.serve_background()
        try:
            with socket.create_connection(server.server_address) as sock:
                reader = sock.makefile("rb")
                send_payload(sock, encode_hello("veh00", "tcp-secret", 0))
                doc = decode_envelope(recv_payload(reader))
                assert doc["schema"] == WELCOME_SCHEMA
                assert doc["source"] == "veh00"
                reader.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            gateway.ingestor.close()
