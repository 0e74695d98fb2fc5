"""``python -m repro gateway`` -- fleet gateway episode + status report.

Runs a deterministic fleet episode through the full stack (windowed
ARQ clients -> adversarial channel -> :class:`FleetGateway` -> ingest
-> telemetry store), verifies the chaos invariants on the way out, and
prints the operator status dashboard (or the JSON document behind it).

``--overload`` starves the gateway's drain budget so the overload
ladder escalates and sheds by class mid-episode -- the dashboard then
shows the shed accounting and the ladder's logged transitions.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from typing import List, Optional

from repro.telemetry.gateway.chaos import (
    GatewayChaosScenario,
    gateway_scenarios,
)
from repro.telemetry.gateway.status import render_status, status_report
from repro.telemetry.uplink.chaos import ChaosConfig, write_report


def episode_scenario(overload: bool) -> GatewayChaosScenario:
    """The episode the CLI (and the example) runs."""
    if overload:
        # The sweep's drain-starved scenario, under the episode's name.
        return replace(
            next(s for s in gateway_scenarios()
                 if s.name == "gw_overload_shed"),
            name="episode_overload",
            description="drain-starved episode: ladder escalates, "
                        "sheds by class, recovers",
        )
    return GatewayChaosScenario(
        name="episode",
        description="clean gateway episode (handshake, windowed "
                    "uplink, status report)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro gateway",
        description="overload-hardened fleet gateway: run an episode "
                    "and print the fleet status report",
    )
    parser.add_argument("--vehicles", type=int, default=5)
    parser.add_argument("--frames", type=int, default=24)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--overload", action="store_true",
                        help="starve the drain budget so the overload "
                             "ladder escalates and sheds by class")
    parser.add_argument("--json", action="store_true",
                        help="print the status document as JSON")
    parser.add_argument("--report", type=Path, default=None,
                        metavar="PATH",
                        help="write the status JSON here")
    args = parser.parse_args(argv)

    scenario = episode_scenario(args.overload)
    try:
        config = ChaosConfig(
            vehicles=args.vehicles, frames=args.frames, seed=args.seed,
            protocol="windowed",
        )
    except ValueError as exc:
        parser.error(str(exc))
    with tempfile.TemporaryDirectory(prefix="repro-gateway-") as tmp:
        driver = scenario.make_driver(config, Path(tmp))
        result = driver.run()
        report = status_report(
            driver.ingestor.service, gateway=driver.gateway
        )
    report["episode"] = result.to_json()
    # The episode's cold-recovery check: what a restart would read.
    report["recovery"] = asdict(driver.last_recovery)

    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_status(report))
        print()
        print(result.render())
        print("cold recovery read: " + ", ".join(
            f"{name}={value}" for name, value in report["recovery"].items()
        ))
    if args.report is not None:
        write_report(args.report, report)
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
