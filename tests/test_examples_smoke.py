"""The examples must stay runnable: execute them as subprocesses.

Marked slow-ish; each example is bounded to a few minutes.  The
perception/budgeting walkthroughs are exercised indirectly through the
experiment tests, so only the faster examples run here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 600) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, f"{name} failed:\n{result.stderr}"
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "(2,10) satisfied: True" in out
        assert "RRRRR" in out  # the slowed frames recovered

    def test_real_ipc_monitor(self):
        out = run_example("real_ipc_monitor.py")
        assert "exceptions: [50, 51, 120]" in out
        assert "monitor latency" in out

    def test_telemetry_uplink(self):
        out = run_example("telemetry_uplink.py")
        assert "truncated_lines=1" in out
        assert "store digest matches the fault-free reference" in out
        assert "VIOLATED" not in out

    def test_adaptive_budgeting(self):
        out = run_example("adaptive_budgeting.py")
        assert "ledger refused the publish" in out
        assert "rollback digest == factory digest" in out
        assert "applied exactly once" in out

    def test_trace_attribution(self):
        out = run_example("trace_attribution.py")
        assert "well-formed spans" in out
        assert "edges sum exactly to the end-to-end latency (residual = 0ns)" in out
        assert "budget burn" in out
        assert "chrome trace events" in out

    def test_fleet_gateway(self):
        out = run_example("fleet_gateway.py")
        assert "episode PASS" in out
        assert "alerts shed: 0 (never)" in out
        assert "ledger balanced for all 50 vehicles" in out
        assert "ladder returned to NORMAL" in out

    def test_examples_exist_and_have_docstrings(self):
        expected = {
            "quickstart.py",
            "perception_pipeline.py",
            "budgeting_workflow.py",
            "remote_monitoring_comparison.py",
            "real_ipc_monitor.py",
            "fault_campaign.py",
            "parallel_campaign.py",
            "telemetry_fleet.py",
            "telemetry_uplink.py",
            "fleet_gateway.py",
            "trace_attribution.py",
            "adaptive_budgeting.py",
        }
        found = {p.name for p in EXAMPLES.glob("*.py")}
        assert expected <= found
        for name in expected:
            text = (EXAMPLES / name).read_text()
            assert text.lstrip().startswith(("#!", '"""')), name
