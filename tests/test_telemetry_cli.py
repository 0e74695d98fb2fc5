"""CLI surfaces: subcommand help, README table sync, telemetry command."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.runner import EXPERIMENTS, SUBCOMMANDS
from repro.experiments.runner import main as runner_main
from repro.telemetry.cli import main as telemetry_main
from repro.telemetry.loadgen import FleetConfig, FleetLoadGenerator, run_load
from repro.telemetry.service import ServiceConfig, TelemetryService

README = Path(__file__).resolve().parent.parent / "README.md"
#: sha256 of ``repro telemetry --vehicles 4 --frames 200``'s alert log
#: and snapshot, and of the same run with ``--queue-capacity 256``, as
#: ``sha256sum`` writes them (CI's telemetry smoke checks the files).
SMOKE_PINS = (
    Path(__file__).resolve().parent / "golden" / "telemetry_smoke.sha256"
)


class TestSubcommandHelp:
    def test_every_subcommand_has_a_description(self):
        assert set(SUBCOMMANDS) == set(EXPERIMENTS) | {
            "adapt", "all", "chaos", "gateway", "telemetry", "trace",
        }
        for name, description in SUBCOMMANDS.items():
            assert description.strip(), name
            assert len(description) < 80, name

    def test_help_epilog_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name, description in SUBCOMMANDS.items():
            assert name in out
            assert description in out

    def test_readme_cli_table_matches_runner(self):
        readme = README.read_text()
        for name, description in SUBCOMMANDS.items():
            row = f"| `{name}` | {description} |"
            assert row in readme, f"README CLI table missing/stale: {row!r}"


class TestTelemetryCommand:
    def test_routed_from_runner(self, capsys):
        assert runner_main(
            ["telemetry", "--vehicles", "1", "--frames", "30"]
        ) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "accounting       : OK" in out

    def test_smoke_run_writes_alert_log_and_snapshot(self, tmp_path, capsys):
        alert_log = tmp_path / "alerts.jsonl"
        snapshot = tmp_path / "snap.json"
        code = telemetry_main([
            "--vehicles", "4", "--frames", "120",
            "--alert-log", str(alert_log),
            "--snapshot", str(snapshot),
        ])
        assert code == 0
        alerts = [
            json.loads(line)
            for line in alert_log.read_text().splitlines() if line
        ]
        assert alerts, "the imperfect fleet must raise alerts"
        assert {"rule", "severity", "source", "timestamp_ns"} <= set(alerts[0])
        data = json.loads(snapshot.read_text())
        assert data["schema"] == "repro-telemetry-store/1"
        assert "restore round-trip OK" in capsys.readouterr().out

    @pytest.mark.parametrize("extra, suffix", [
        ([], ""),
        (["--batch", "97"], ""),
        (["--batch", "1"], ""),
        (["--queue-capacity", "256"], "-cap256"),
    ], ids=["default", "batch-97", "batch-1", "cap-256"])
    def test_smoke_outputs_match_their_pinned_sha256(
        self, extra, suffix, tmp_path, capsys
    ):
        """The faulty fleet's alert log and store snapshot, byte for
        byte, however ``run_load`` slices the rows (a capacity below the
        batch drops, so it has pins of its own)."""
        pins = {
            name: digest for digest, name in
            (line.split() for line in SMOKE_PINS.read_text().splitlines())
        }
        alerts = tmp_path / f"telemetry-alerts{suffix}.jsonl"
        snapshot = tmp_path / f"telemetry-snapshot{suffix}.json"
        assert telemetry_main([
            "--vehicles", "4", "--frames", "200", *extra,
            "--alert-log", str(alerts), "--snapshot", str(snapshot),
        ]) == 0
        lines = alerts.read_text().splitlines()
        rules = {json.loads(line)["rule"] for line in lines}
        assert len(rules) >= 3, rules
        for path in (alerts, snapshot):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == pins[path.name], path.name

    def test_min_throughput_gate_fails_when_missed(self, capsys):
        # An impossible gate must exit non-zero.
        code = telemetry_main([
            "--vehicles", "1", "--frames", "30",
            "--min-throughput", "1e15",
        ])
        assert code == 1

    @pytest.mark.parametrize("flag", [
        "--batch", "--queue-capacity", "--vehicles", "--frames",
    ])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_sizes_are_usage_errors(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            telemetry_main([flag, value])
        assert excinfo.value.code == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_run_load_rejects_a_batch_size_below_one(self, batch_size):
        service = TelemetryService(ServiceConfig())
        generator = FleetLoadGenerator(FleetConfig(vehicles=1, frames=10))
        with pytest.raises(ValueError, match="batch_size"):
            run_load(service, generator, batch_size=batch_size)

    def test_accounting_requires_every_generated_record_offered(self):
        """A drive that offered the service nothing must not report OK."""
        generator = FleetLoadGenerator(FleetConfig(vehicles=1, frames=10))

        class Idle(TelemetryService):
            def ingest_batch(self, records):
                return 0

        report = run_load(Idle(ServiceConfig()), generator)
        assert report.records > 0 and report.applied == 0
        assert not report.accounting_ok
        assert "accounting       : VIOLATED" in report.render()

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["no-such-figure"])
        assert excinfo.value.code != 0
