#!/usr/bin/env python3
"""Fleet telemetry walkthrough: ingest at scale, alert on (m,k) trouble.

Three stages, all through the public `repro.telemetry` API:

1. **Synthetic fleet load** -- drive the service with the deterministic
   multi-vehicle load generator, check the no-silent-drop accounting
   law (offered == applied + dropped + pending), and show which alert
   rules fired.
2. **Snapshot / restore** -- persist the sharded chain-state store as
   pure JSON and prove the restored store re-snapshots byte-identical.
3. **Stack replay** -- run a `PerceptionStack`, then replay what its
   monitors recorded through `replay_stack_batch` + `ingest_batch`, as
   the fault campaign does, so the paper's in-vehicle verdicts land in
   the fleet store.

Run:  python examples/telemetry_fleet.py
"""

import json

from repro.perception.stack import PerceptionStack, StackConfig
from repro.telemetry import (
    FleetConfig,
    FleetLoadGenerator,
    ServiceConfig,
    TelemetryService,
    replay_stack_batch,
    run_load,
    stack_store_config,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Synthetic fleet: 6 vehicles, 200 frames, one scripted faulty
    #    vehicle so the alert rules have traffic.
    # ------------------------------------------------------------------
    fleet = FleetConfig(vehicles=6, frames=200)
    generator = FleetLoadGenerator(fleet)
    service = TelemetryService(ServiceConfig(store=fleet.store_config()))
    report = run_load(service, generator)
    print("--- fleet load ---")
    print(report.render())
    assert report.accounting_ok and report.dropped == 0

    print()
    print("worst chains by (m,k) violations:")
    rows = sorted(service.store.chain_summary(),
                  key=lambda r: -r["violations"])[:3]
    for row in rows:
        print(f"  {row['source']:14s} {row['chain']:16s} "
              f"viol={row['violations']:<4d} margin={row['margin']}")

    # ------------------------------------------------------------------
    # 2. Snapshot the store through JSON and restore it elsewhere.
    # ------------------------------------------------------------------
    snapshot = service.snapshot()
    twin = TelemetryService()
    twin.restore(json.loads(json.dumps(snapshot)))
    assert twin.snapshot() == snapshot
    print(f"\nsnapshot round-trip OK "
          f"({len(json.dumps(snapshot)) // 1024} KiB of JSON)")

    # ------------------------------------------------------------------
    # 3. Replay a finished perception stack: the monitors recorded every
    #    verdict, and one list of wire rows carries them to the service.
    # ------------------------------------------------------------------
    stack = PerceptionStack(StackConfig(seed=7))
    stack.run(n_frames=15)
    replayed = TelemetryService(ServiceConfig(store=stack_store_config(stack)))
    batch = replay_stack_batch(stack, "vehicle-under-test", 15)
    replayed.ingest_batch(batch)
    replayed.poll()
    assert replayed.applied == len(batch) and replayed.accounting_ok()
    print(f"\n--- stack replay ---\n"
          f"{len(batch)} records from 15 frames, all applied")
    for name, p in replayed.store.segment_percentiles().items():
        print(f"  {name:24s} p95={(p['p95'] or 0) / 1e6:7.3f} ms "
              f"({p['count']} samples)")


if __name__ == "__main__":
    main()
