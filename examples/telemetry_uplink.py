#!/usr/bin/env python3
"""Durable uplink walkthrough: spool, crash, recover, deliver, verify.

Four stages, all through the public `repro.telemetry.uplink` API
(DESIGN.md §9):

1. **Append-before-emit** -- spool a vehicle's telemetry into a
   CRC-framed write-ahead log; nothing is eligible to send before it
   is durable.
2. **Torn-tail crash** -- damage the last WAL line mid-write (the only
   line a crash can tear), recover, and show the repair is *counted*,
   never silent.
3. **Lossy delivery** -- drive two vehicles through a dropping,
   duplicating channel with the windowed client into the idempotent
   fleet ingestor, then check the ledger law by hand:
   ``offered == acked + spooled + evicted``.
4. **Server crash** -- kill the ingestor, recover from checkpoint +
   log replay, and prove the store digest is unchanged.

Run:  python examples/telemetry_uplink.py
"""

import tempfile
from pathlib import Path

from repro.telemetry import (
    FleetConfig,
    FleetLoadGenerator,
    ServiceConfig,
    TelemetryService,
)
from repro.telemetry.uplink import (
    AdversarialChannel,
    ChannelFaultPlan,
    UplinkIngestor,
    WalConfig,
    WalSpooler,
    WindowedClientConfig,
    WindowedUplinkClient,
    decode_envelope,
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
    records = FleetLoadGenerator(FLEET).materialize()
    streams = {}
    for record in records:
        streams.setdefault(record.source, []).append(record)

    # Fault-free reference: what the fleet store must converge to.
    reference = TelemetryService(ServiceConfig(store=FLEET.store_config()))
    reference.ingest_many(records)
    reference.pump()
    want_digest = store_digest(reference)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        # --------------------------------------------------------------
        # 1. Append-before-emit: every record is durable in the WAL
        #    before the client may send it.
        # --------------------------------------------------------------
        source, stream = sorted(streams.items())[0]
        config = WalConfig(root / source, fsync="never",
                           segment_max_records=64)
        spooler = WalSpooler.open_fresh(config, source)
        for record in stream:
            spooler.append(record)
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
        spooler.append(stream[-1])  # the vehicle re-emits the torn record

        # --------------------------------------------------------------
        # 3. Lossy delivery: windowed clients vs a dropping,
        #    duplicating channel; the ingestor applies exactly once.
        # --------------------------------------------------------------
        ingestor = UplinkIngestor(
            TelemetryService(ServiceConfig(store=FLEET.store_config())),
            root / "fleet", fsync="never", checkpoint_every=4,
        )
        ledger = {src: {"offered": set(), "acked": set()}
                  for src in streams}
        clients = {}

        def deliver_ack(frame, now):
            doc = decode_envelope(frame.payload)
            if doc is not None:
                clients[frame.dst].on_ack(doc, now)

        def deliver_frame(frame, now):
            ack = ingestor.handle_payload(frame.payload, now)
            if ack is not None:
                down.send(ack, "fleet", frame.src, now)

        plan = ChannelFaultPlan(drop_prob=0.15, dup_prob=0.15)
        up = AdversarialChannel("up", deliver_frame, plan, seed=11)
        down = AdversarialChannel("down", deliver_ack, plan, seed=12)

        spoolers = {source: spooler}
        for src, st in sorted(streams.items())[1:]:
            spoolers[src] = WalSpooler.open_fresh(
                WalConfig(root / src, fsync="never",
                          segment_max_records=64), src)
            for record in st:
                spoolers[src].append(record)
        for src, sp in spoolers.items():
            ledger[src]["offered"] = set(sp.pending_seqs())
            clients[src] = WindowedUplinkClient(
                sp,
                lambda payload, now, s=src: up.send(payload, s, "fleet", now),
                WindowedClientConfig(frame_records=8, window_frames=4,
                                     ack_timeout=6, seed=3),
            )
            clients[src].on_acked = (
                lambda released, s=src: ledger[s]["acked"].update(
                    r.seq for r in released))

        now = 0
        while any(not c.idle() for c in clients.values()) and now < 10_000:
            for client in clients.values():
                client.tick(now)
            up.step(now)
            down.step(now)
            now += 1

        print("\n--- 3. lossy delivery ---")
        print(f"converged after {now} steps; channel up: "
              f"dropped={up.stats.dropped} duplicated={up.stats.duplicated}")
        print(f"ingestor: fresh={ingestor.records_fresh} "
              f"duplicates={ingestor.records_duplicate}")
        for src, entry in sorted(ledger.items()):
            spooled = spoolers[src].pending
            ok = entry["offered"] == entry["acked"] and spooled == 0
            print(f"  {src}: offered={len(entry['offered'])} "
                  f"acked={len(entry['acked'])} spooled={spooled} "
                  f"evicted=0 {'OK' if ok else 'VIOLATED'}")
            assert ok, "ledger law violated"
        assert store_digest(ingestor.service) == want_digest
        print("store digest matches the fault-free reference")

        # --------------------------------------------------------------
        # 4. Server crash: checkpoint + append-before-ack log replay
        #    rebuild the exact same store.
        # --------------------------------------------------------------
        ingestor.close()
        recovered, rec_report = UplinkIngestor.recover(
            root / "fleet",
            service_config=ServiceConfig(store=FLEET.store_config()),
            fsync="never",
        )
        print("\n--- 4. server recovery ---")
        print(f"checkpoint_loaded={rec_report.checkpoint_loaded} "
              f"replayed_records={rec_report.replayed_records} "
              f"(fresh={rec_report.replayed_fresh})")
        assert store_digest(recovered.service) == want_digest
        print("recovered store digest matches -- no record lost, "
              "none double-counted")


if __name__ == "__main__":
    main()
