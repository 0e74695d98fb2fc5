"""``python -m repro telemetry`` -- fleet ingest load runs and reports.

Examples
--------
Default fleet (8 vehicles, 400 frames), report throughput + alerts::

    python -m repro telemetry

CI smoke: small fleet, persist the alert log, gate on accounting::

    python -m repro telemetry --vehicles 4 --frames 200 \
        --alert-log telemetry-alerts.jsonl

The command always verifies the no-silent-drop accounting law and exits
non-zero when it is violated (it never should be) or when a
``--min-throughput`` gate is given and missed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.schema import decode_json
from repro.telemetry.loadgen import FleetConfig, FleetLoadGenerator, run_load
from repro.telemetry.service import ServiceConfig, TelemetryService


def _render_chain_summary(service: TelemetryService, limit: int = 8) -> str:
    rows = service.store.chain_summary()
    lines = [
        f"{'source':14s} {'chain':16s} {'mk':>7s} {'acts':>6s} "
        f"{'miss':>5s} {'viol':>5s} {'margin':>6s}"
    ]
    for row in rows[:limit]:
        lines.append(
            f"{row['source']:14s} {row['chain']:16s} {row['mk']:>7s} "
            f"{row['activations']:>6d} {row['misses']:>5d} "
            f"{row['violations']:>5d} {row['margin']:>6d}"
        )
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more keys")
    return "\n".join(lines)


def _render_percentiles(service: TelemetryService, limit: int = 6) -> str:
    rows = service.store.segment_percentiles()
    lines = [
        f"{'segment':24s} {'count':>7s} {'p50':>9s} {'p95':>9s} {'p99':>9s}"
    ]
    for name in list(rows)[:limit]:
        p = rows[name]
        lines.append(
            f"{name:24s} {p['count']:>7d} "
            f"{(p['p50'] or 0) / 1e6:>7.2f}ms "
            f"{(p['p95'] or 0) / 1e6:>7.2f}ms "
            f"{(p['p99'] or 0) / 1e6:>7.2f}ms"
        )
    if len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more segments")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro telemetry",
        description="Fleet telemetry service: deterministic load "
        "generation, sharded (m,k) chain-state ingest, alerting.",
    )
    parser.add_argument("--vehicles", type=int, default=8,
                        help="fleet size (default: 8)")
    parser.add_argument("--frames", type=int, default=400,
                        help="frames per vehicle (default: 400)")
    parser.add_argument("--seed", type=int, default=2025,
                        help="fleet stream seed (default: 2025)")
    parser.add_argument("--queue-capacity", type=int, default=65536,
                        help="most records one ingest batch admits; "
                        "the rest are dropped and counted (default: 65536)")
    parser.add_argument("--batch", type=int, default=2048,
                        help="ingest batch size (default: 2048)")
    parser.add_argument("--alert-log", type=Path, default=None, metavar="PATH",
                        help="write the alert log as JSONL to PATH")
    parser.add_argument("--snapshot", type=Path, default=None, metavar="PATH",
                        help="write a store snapshot to PATH and verify "
                        "a restore round-trip")
    parser.add_argument("--min-throughput", type=float, default=0.0,
                        metavar="RPS",
                        help="exit non-zero below this ingest rate "
                        "(default: no gate)")
    args = parser.parse_args(argv)
    for flag in ("vehicles", "frames", "queue_capacity", "batch"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag.replace('_', '-')} must be >= 1")

    fleet = FleetConfig(
        vehicles=args.vehicles, frames=args.frames, seed=args.seed
    )
    generator = FleetLoadGenerator(fleet)
    service = TelemetryService(ServiceConfig(
        queue_capacity=args.queue_capacity,
        store=fleet.store_config(),
    ))
    report = run_load(service, generator, batch_size=args.batch)

    print(f"Fleet load: {fleet.vehicles} vehicles x {fleet.frames} frames, "
          f"seed {fleet.seed}")
    print(report.render())
    print()
    print(_render_chain_summary(service))
    print()
    print(_render_percentiles(service))

    if args.alert_log is not None:
        args.alert_log.parent.mkdir(parents=True, exist_ok=True)
        args.alert_log.write_text(service.alert_log.to_jsonl())
        print(f"\nwrote {len(service.alert_log)} alerts to {args.alert_log}")
    if args.snapshot is not None:
        snapshot = service.snapshot()
        args.snapshot.parent.mkdir(parents=True, exist_ok=True)
        args.snapshot.write_text(json.dumps(snapshot, indent=2, sort_keys=True))
        from repro.telemetry.store import ChainStateStore

        restored = ChainStateStore.restore(
            decode_json(args.snapshot.read_text())
        )
        identical = restored.snapshot() == snapshot
        print(f"wrote snapshot to {args.snapshot} "
              f"(restore round-trip {'OK' if identical else 'MISMATCH'})")
        if not identical:
            return 1

    failed = False
    if not report.accounting_ok:
        print("\nERROR: accounting violated -- a record was neither "
              "applied nor counted as dropped", file=sys.stderr)
        failed = True
    if args.min_throughput and report.records_per_s < args.min_throughput:
        print(f"\nERROR: throughput {report.records_per_s:,.0f} records/s "
              f"below the {args.min_throughput:,.0f} gate", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
