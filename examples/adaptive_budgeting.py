#!/usr/bin/env python3
"""Closed-loop adaptive budgeting walkthrough: drift, shadow, rollback.

Four stages, all through the public `repro.adaptive` API
(DESIGN.md §11):

1. **Re-derive** -- turn a fleet observation window back into the
   paper's budgeting CSP (Eqs. 2-7) and mint a feasible epoch whose
   slack headroom follows the critical-path attribution.
2. **Shadow rejection** -- replay the window under an over-tight
   candidate and watch the validator refuse it for an (m,k)
   regression; the ledger then refuses to publish it, crash or no
   crash.
3. **Canary rollback** -- stage an accepted epoch on a one-vehicle
   canary cohort, regress it during probation, and watch the plane
   publish last-good budgets under a fresh id (content digest equal).
4. **Exactly-once apply** -- deliver an epoch to a DEGRADED vehicle
   (ack `deferred`), crash it, recover, return to NORMAL, and show the
   epoch applied exactly once.

Run:  python examples/adaptive_budgeting.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(
    0, str(Path(__file__).resolve().parent.parent / "src")
)

from repro.adaptive import (  # noqa: E402
    BudgetControlPlane,
    BudgetEpoch,
    BudgetResolver,
    ControlPlaneConfig,
    ControlPlaneState,
    EpochLedgerError,
    ShadowValidator,
    VehicleEpochAgent,
)
from repro.adaptive.chaos import fleet_chain  # noqa: E402
from repro.faults.degradation import DegradationMode  # noqa: E402
from repro.telemetry.records import KIND_SEGMENT  # noqa: E402
from repro.telemetry.uplink.transport import (  # noqa: E402
    EPOCH_ACK_SCHEMA,
    decode_envelope,
    encode_epoch_frame,
)

_MS = 1_000_000
VEHICLES = ["veh00", "veh01", "veh02"]


def fmt(budgets):
    return ", ".join(
        f"{seg}={ns / _MS:.2f}ms" for seg, ns in sorted(budgets.items())
    )


def make_window(chain, medians, activations=24):
    """A steady per-vehicle stream of segment wire rows."""
    rows = []
    seq = 0
    for vehicle in VEHICLES:
        for activation in range(activations):
            for segment, latency in medians.items():
                rows.append((
                    KIND_SEGMENT, vehicle, chain.name, segment, activation,
                    latency, "ok", "", (activation + 1) * chain.period, seq,
                ))
                seq += 1
    return rows


def main() -> None:
    chain = fleet_chain()
    factory = {seg.name: int(seg.d_mon) for seg in chain.segments}
    window = make_window(
        chain, {"seg0": 4 * _MS, "seg1": 6 * _MS, "seg2": 8 * _MS}
    )

    # ------------------------------------------------------------------
    # 1. Re-derive d_mon from the window (Eqs. 2-7 + slack headroom).
    # ------------------------------------------------------------------
    resolver = BudgetResolver({chain.name: chain})
    outcome = resolver.resolve(
        window, attribution={"seg0": 0.2, "seg1": 0.3, "seg2": 0.5}
    )
    assert outcome.ok
    derived = outcome.epoch(epoch_id=1, parent_id=0)
    budgets = derived.budgets[chain.name]
    total = sum(budgets.values())
    print("--- 1. re-derive ---")
    print(f"factory: {fmt(factory)}")
    print(f"derived: {fmt(budgets)}")
    print(f"telescoped sum {total / _MS:.2f}ms <= "
          f"B_e2e {chain.budget_e2e / _MS:.0f}ms")
    assert total <= chain.budget_e2e
    assert all(b <= chain.budget_seg for b in budgets.values())

    # ------------------------------------------------------------------
    # 2. Shadow validation rejects an over-tight candidate, and the
    #    ledger makes publishing it impossible anyway.
    # ------------------------------------------------------------------
    shadow = ShadowValidator({chain.name: chain})
    baseline = BudgetEpoch(epoch_id=0, budgets={chain.name: factory})
    too_tight = BudgetEpoch(epoch_id=2, budgets={
        chain.name: {**factory, "seg0": 1 * _MS},
    })
    verdict = shadow.validate(window, too_tight, baseline)
    print("\n--- 2. shadow rejection ---")
    print(f"accepted={verdict.accepted}")
    for reason in verdict.reasons:
        print(f"  reason: {reason}")
    assert not verdict.accepted
    assert verdict.candidate_violations > verdict.baseline_violations

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        sent = []

        def send(payload, vehicle, now):
            doc = decode_envelope(payload)
            sent.append((vehicle, doc["epoch"]["epoch_id"]))
            # Obedient fleet: every frame is acked applied immediately.
            plane.on_ack({
                "schema": EPOCH_ACK_SCHEMA, "vehicle": vehicle,
                "epoch_id": doc["epoch"]["epoch_id"],
                "status": "applied",
            }, now)

        plane = BudgetControlPlane(
            {chain.name: chain}, VEHICLES, root / "plane", send,
            config=ControlPlaneConfig(
                rederive_every=0, canary_count=1, probation_steps=4,
            ),
        )
        violations = {vehicle: 0 for vehicle in VEHICLES}
        now = 0
        while plane.state is not ControlPlaneState.IDLE:
            plane.tick(now, lambda: dict(violations))
            now += 1
        plane.observe_many(window)

        rejected = too_tight
        plane.ledger.record_epoch(rejected)
        plane.ledger.record_rejected(rejected.epoch_id, verdict.reasons[0])
        try:
            plane.distributor.publish(rejected, VEHICLES, "fleet")
            raise AssertionError("published a rejected epoch")
        except EpochLedgerError as error:
            print(f"ledger refused the publish: {error}")

        # --------------------------------------------------------------
        # 3. Canary rollback: the accepted epoch regresses during
        #    probation; last-good comes back under a fresh id.
        # --------------------------------------------------------------
        staged = plane.consider(now)
        assert staged is not None, "candidate should enter canary"
        plane.tick(now, lambda: dict(violations)); now += 1
        plane.tick(now, lambda: dict(violations)); now += 1
        violations[plane.canary_cohort[0]] += 3  # the canary regresses
        while plane.state is not ControlPlaneState.IDLE:
            plane.tick(now, lambda: dict(violations))
            now += 1
        failed_id, rollback_id = plane.ledger.rollbacks[-1]
        rollback = plane.ledger.epochs[rollback_id]
        print("\n--- 3. canary rollback ---")
        print(f"epoch {staged.epoch_id} staged on "
              f"{plane.canary_cohort} -> regressed -> "
              f"rollback epoch {rollback_id}")
        assert failed_id == staged.epoch_id
        assert rollback.digest() == baseline.digest()
        print(f"rollback digest == factory digest "
              f"({rollback.digest()[:12]}...)")
        # No control-cohort vehicle ever saw the failed epoch.
        assert all(
            vehicle in plane.canary_cohort
            for vehicle, eid in sent if eid == staged.epoch_id
        )
        plane.close()

        # --------------------------------------------------------------
        # 4. Deferred, crashed, recovered, applied exactly once.
        # --------------------------------------------------------------
        installs = []
        agent = VehicleEpochAgent(
            "veh00", root / "veh00", install=installs.append
        )
        agent.set_mode(DegradationMode.DEGRADED)
        ack = agent.handle_frame(
            encode_epoch_frame("veh00", derived.to_json())
        )
        status = decode_envelope(ack)["status"]
        print("\n--- 4. exactly-once apply through a crash ---")
        print(f"DEGRADED vehicle acked: {status}")
        assert status == "deferred" and installs == []
        agent.kill()  # crash while the epoch is parked
        agent, report = VehicleEpochAgent.recover(
            "veh00", root / "veh00", install=installs.append
        )
        print(f"recovered: pending_apply={report.pending_apply}")
        ack = agent.set_mode(DegradationMode.NORMAL)
        assert decode_envelope(ack)["status"] == "applied"
        assert [e.epoch_id for e in installs] == [derived.epoch_id]
        assert agent.ledger_json()["balanced"]
        print(f"back to NORMAL: epoch {derived.epoch_id} applied "
              f"exactly once (installs={len(installs)}, ledger balanced)")
        agent.close()


if __name__ == "__main__":
    main()
