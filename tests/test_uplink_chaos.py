"""Chaos harness: scenario sweep invariants, determinism, CLI."""

import json

import pytest

from repro.adaptive.chaos import AdaptDriver, main as adapt_main
from repro.telemetry.gateway.chaos import GatewayChaosDriver
from repro.telemetry.uplink.chaos import (
    ChaosConfig,
    ChaosDriver,
    ChaosScenario,
    CrashEvent,
    default_scenarios,
    main,
    run_chaos,
)
from repro.telemetry.uplink.transport import ChannelFaultPlan


def _quick_config(**kwargs):
    kwargs.setdefault("vehicles", 2)
    kwargs.setdefault("frames", 8)
    kwargs.setdefault("fsync", "never")
    return ChaosConfig(**kwargs)


def _by_name(name):
    return next(s for s in default_scenarios() if s.name == name)


class TestScenarios:
    def test_default_sweep_covers_every_fault_class_and_crash_points(self):
        scenarios = {s.name: s for s in default_scenarios()}
        for fault in ("drop", "duplicate", "reorder", "corrupt", "partition"):
            assert fault in scenarios
        vehicle = [
            e for s in scenarios.values() for e in s.crashes
            if e.side == "vehicle"
        ]
        server = [
            e for s in scenarios.values() for e in s.crashes
            if e.side == "server"
        ]
        assert len({e.step for e in vehicle}) >= 3
        assert len({e.step for e in server}) >= 3
        assert any(e.torn_tail for e in vehicle)
        assert scenarios["eviction"].expect_evictions

    def test_full_quick_sweep_passes(self, tmp_path):
        report = run_chaos(
            _quick_config(), default_scenarios(), workdir=tmp_path
        )
        failures = [s["name"] for s in report["scenarios"] if not s["ok"]]
        assert report["ok"], f"failing scenarios: {failures}"
        assert len(report["scenarios"]) == len(default_scenarios())

    def test_ledger_balances_under_mixed_chaos(self, tmp_path):
        result = ChaosDriver(
            _by_name("chaos_mixed"), _quick_config(), tmp_path
        ).run()
        assert result.ok
        for source, entry in result.ledger.items():
            assert entry["balanced"], (source, entry)
            assert entry["offered"] == (
                entry["acked"] + entry["spooled"] + entry["evicted"]
            )

    def test_eviction_scenario_counts_losses(self, tmp_path):
        result = ChaosDriver(
            _by_name("eviction"), _quick_config(), tmp_path
        ).run()
        assert result.ok
        evicted = sum(e["evicted"] for e in result.ledger.values())
        assert evicted > 0
        # Evicted records are the only ones missing from the fleet side.
        for entry in result.ledger.values():
            assert entry["spooled"] == 0
            assert entry["acked"] + entry["evicted"] == entry["offered"]

    def test_crash_scenarios_actually_crash_and_recover(self, tmp_path):
        # Enough frames that the spool is still busy at every crash
        # point -- otherwise the torn-tail kill has nothing to tear.
        vehicle = ChaosDriver(
            _by_name("vehicle_crash"), _quick_config(frames=24),
            tmp_path / "v",
        ).run()
        assert vehicle.ok
        assert vehicle.recoveries["vehicles"], "no vehicle ever recovered"
        assert any(
            entry["truncated_lines"] > 0
            for entry in vehicle.recoveries["vehicles"].values()
        ), "the torn-tail crash point never tore a tail"
        server = ChaosDriver(
            _by_name("server_crash"), _quick_config(), tmp_path / "s"
        ).run()
        assert server.ok
        assert server.recoveries["server"] == 3

    def test_torn_ack_mark_is_reported_never_silent(
        self, tmp_path, monkeypatch
    ):
        """A kill that also tears the newest ack-mark line: recovery
        falls back one mark, the re-offered records are absorbed by the
        fleet's dedup (digest still converges), and the report says so."""
        from repro.telemetry.uplink.chaos import _Vehicle

        real_kill = _Vehicle.kill

        def kill_and_tear_mark(vehicle, torn_tail):
            real_kill(vehicle, torn_tail)
            path = vehicle.wal_config.directory / "ackmark.log"
            raw = path.read_bytes()
            lines = raw.split(b"\n")
            if len(lines) >= 4:  # header, an older mark, the newest, ""
                path.write_bytes(raw[: len(raw) - len(lines[-2]) // 2 - 1])

        monkeypatch.setattr(_Vehicle, "kill", kill_and_tear_mark)
        result = ChaosDriver(
            _by_name("vehicle_crash"), _quick_config(frames=24), tmp_path
        ).run()
        stats = result.recoveries["vehicles"]
        assert sum(
            entry.get("mark_truncated_lines", 0) for entry in stats.values()
        ) >= 1
        checks = {c["name"]: c["ok"] for c in result.checks}
        assert checks["converged"] and checks["digest"]
        assert checks["recovery_digest"]

    def test_sweep_is_deterministic(self, tmp_path):
        scenario = _by_name("chaos_mixed")
        first = ChaosDriver(scenario, _quick_config(), tmp_path / "a").run()
        second = ChaosDriver(scenario, _quick_config(), tmp_path / "b").run()
        assert first.to_json() == second.to_json()

    def test_unhealable_fault_is_detected_not_masked(self, tmp_path):
        """Sanity that the checks can fail: a permanent one-way
        partition must show up as non-convergence, not a pass."""
        scenario = ChaosScenario(
            name="dead_uplink",
            up=ChannelFaultPlan(partitions=((0, 10_000),)),
            check_digest=False,
        )
        result = ChaosDriver(
            scenario, _quick_config(max_steps=120), tmp_path
        ).run()
        assert not result.ok
        assert any(
            c["name"] == "converged" and not c["ok"] for c in result.checks
        )


@pytest.mark.parametrize("cli, schema, names", [
    pytest.param(main, "repro-chaos-report/1", ["baseline", "drop"],
                 id="chaos"),
    pytest.param(adapt_main, "repro-adapt-report/1",
                 ["adapt_baseline", "epoch_frame_lost"], id="adapt"),
])
class TestCli:
    """``repro chaos`` and ``repro adapt`` are one command line."""

    @staticmethod
    def _argv(names, tmp_path):
        argv = ["--quick", "--dir", str(tmp_path / "work"),
                "--report", str(tmp_path / "out" / "report.json")]
        for name in names:
            argv += ["--scenario", name]
        return argv

    def test_quick_sweep_writes_a_passing_report(
        self, cli, schema, names, tmp_path, capsys
    ):
        assert cli(self._argv(names, tmp_path)) == 0
        out = capsys.readouterr().out
        assert "ALL PASS" in out and "FAIL" not in out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["schema"] == schema
        assert report["ok"]
        assert [s["name"] for s in report["scenarios"]] == names

    def test_list_prints_scenarios(self, cli, schema, names, capsys):
        assert cli(["--list"]) == 0
        out = capsys.readouterr().out
        assert all(name in out for name in names)

    def test_unknown_scenario_rejected(self, cli, schema, names):
        with pytest.raises(SystemExit):
            cli(["--scenario", "no-such-scenario"])

    def test_dir_holding_a_run_is_refused_not_wiped(
        self, cli, schema, names, tmp_path, capsys
    ):
        argv = self._argv(names[:1], tmp_path)
        assert cli(argv) == 0
        kept = sorted((tmp_path / "work").rglob("wal-*.log"))
        assert kept
        capsys.readouterr()
        with pytest.raises(SystemExit) as refused:
            cli(argv)
        assert refused.value.code == 2
        assert str(tmp_path / "work") in capsys.readouterr().err
        assert sorted((tmp_path / "work").rglob("wal-*.log")) == kept

    @pytest.mark.parametrize("flag", ["--vehicles", "--frames"])
    def test_zero_is_an_error_not_the_default(
        self, cli, schema, names, flag, capsys
    ):
        with pytest.raises(SystemExit) as refused:
            cli([flag, "0", "--scenario", names[0]])
        assert refused.value.code == 2
        assert ">=" in capsys.readouterr().err


class TestOneDriver:
    """The three sweeps share one episode loop: a sweep's driver
    overrides role hooks, never the loop or its plumbing."""

    @pytest.mark.parametrize(
        "name",
        ["run", "_deliver_up", "_deliver_down", "_kill", "_recover"],
    )
    def test_no_sweep_carries_its_own_copy(self, name):
        for driver in (AdaptDriver, GatewayChaosDriver):
            assert getattr(driver, name) is getattr(ChaosDriver, name)


class TestOneProtocol:
    """The stop-and-wait client is gone; nothing may select it."""

    def test_protocol_field_has_one_legal_value(self):
        assert ChaosConfig().protocol == "windowed"
        assert ChaosConfig(protocol="windowed").protocol == "windowed"
        with pytest.raises(ValueError):
            ChaosConfig(protocol="stop_and_wait")

    def test_cli_has_no_protocol_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--protocol", "windowed", "--list"])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCrashEventValidation:
    def test_rejects_bad_side_and_steps(self):
        with pytest.raises(ValueError):
            CrashEvent(step=1, side="sideways")
        with pytest.raises(ValueError):
            CrashEvent(step=-1, side="server")
        with pytest.raises(ValueError):
            CrashEvent(step=1, side="server", down_for=0)
