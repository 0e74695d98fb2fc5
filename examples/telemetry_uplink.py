#!/usr/bin/env python3
"""Durable uplink walkthrough: spool, crash, recover, deliver, verify.

Four stages, all through the public `repro.telemetry.uplink` API
(DESIGN.md §9):

1. **Append-before-emit** -- spool a vehicle's telemetry (the load
   generator's wire rows, as they are) into a CRC-framed write-ahead
   log; nothing is eligible to send before it is durable.
2. **Torn-tail crash** -- damage the last WAL line mid-write (the only
   line a crash can tear), recover, and show the repair is *counted*,
   never silent.
3. **Lossy delivery** -- run two vehicles through a dropping,
   duplicating channel pair with the chaos episode driver (windowed
   clients into the idempotent fleet ingestor) and read the ledger law
   off its result: ``offered == acked + spooled + evicted + shed``.
4. **Server crash** -- recover the ingestor that episode left on disk
   from checkpoint + log replay, and prove the store digest is
   unchanged.

Run:  python examples/telemetry_uplink.py
"""

import tempfile
from pathlib import Path

from repro.telemetry import FleetConfig, FleetLoadGenerator
from repro.telemetry.uplink import (
    ChannelFaultPlan,
    ChaosConfig,
    ChaosDriver,
    ChaosScenario,
    UplinkIngestor,
    WalConfig,
    WalSpooler,
    store_digest,
)

FLEET = FleetConfig(vehicles=2, frames=30, faulty_every=0)


def tear_tail(directory: Path) -> None:
    """Chop the newest WAL line in half, as a mid-write crash would."""
    path = sorted(directory.glob("wal-*.log"))[-1]
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    streams = {}
    for row in FleetLoadGenerator(FLEET).batch():
        streams.setdefault(row[1], []).append(row)  # row[1]: the source

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        # --------------------------------------------------------------
        # 1. Append-before-emit: every row is durable in the WAL
        #    before the client may send it.
        # --------------------------------------------------------------
        source, stream = sorted(streams.items())[0]
        config = WalConfig(root / source, fsync="never",
                           segment_max_records=64)
        spooler = WalSpooler.open_fresh(config, source)
        spooler.append_many(stream)
        stats = spooler.stats()
        print("--- 1. spool ---")
        print(f"{stats['pending']} records pending in "
              f"{stats['segments']} segments "
              f"({stats['bytes'] // 1024} KiB)")
        assert stats["pending"] == len(stream)

        # --------------------------------------------------------------
        # 2. Torn-tail crash: the half-written line is truncated away
        #    and *counted*; every intact record survives.
        # --------------------------------------------------------------
        spooler.close()
        tear_tail(config.directory)
        spooler, report = WalSpooler.recover(config, source)
        print("\n--- 2. torn-tail recovery ---")
        print(f"truncated_lines={report.truncated_lines} "
              f"pending={report.pending} (of {len(stream)} appended)")
        assert report.truncated_lines == 1
        assert report.pending == len(stream) - 1
        spooler.append_many(stream[-1:])  # the vehicle re-emits the torn row
        spooler.close()

        # --------------------------------------------------------------
        # 3. Lossy delivery: windowed clients vs a dropping,
        #    duplicating channel; the ingestor applies exactly once.
        #    The episode driver owns the step clock and the ledger.
        # --------------------------------------------------------------
        plan = ChannelFaultPlan(drop_prob=0.15, dup_prob=0.15)
        config = ChaosConfig(vehicles=FLEET.vehicles, frames=FLEET.frames,
                             seed=FLEET.seed)
        driver = ChaosDriver(
            ChaosScenario(name="lossy", up=plan, down=plan), config, root
        )
        result = driver.run()
        up = result.channels["up"]
        print("\n--- 3. lossy delivery ---")
        print(f"converged after {result.converged_at} steps; channel up: "
              f"dropped={up['dropped']} duplicated={up['duplicated']}")
        print(f"ingestor: fresh={result.ingest['records_fresh']} "
              f"duplicates={result.ingest['records_duplicate']}")
        for src, entry in sorted(result.ledger.items()):
            print(f"  {src}: offered={entry['offered']} "
                  f"acked={entry['acked']} spooled={entry['spooled']} "
                  f"evicted={entry['evicted']} shed={entry['shed']} "
                  f"{'OK' if entry['balanced'] else 'VIOLATED'}")
        assert result.ok, [c for c in result.checks if not c["ok"]]
        print("store digest matches the fault-free reference")

        # --------------------------------------------------------------
        # 4. Server crash: checkpoint + append-before-ack log replay
        #    rebuild the exact same store.
        # --------------------------------------------------------------
        recovered, rec_report = UplinkIngestor.recover(
            driver.server_dir, service_config=config.service_config(),
            fsync="never",
        )
        print("\n--- 4. server recovery ---")
        print(f"checkpoint_loaded={rec_report.checkpoint_loaded} "
              f"replayed_records={rec_report.replayed_records} "
              f"(fresh={rec_report.replayed_fresh})")
        assert store_digest(recovered.service) == driver.reference_digest
        recovered.close()
        print("recovered store digest matches -- no record lost, "
              "none double-counted")


if __name__ == "__main__":
    main()
