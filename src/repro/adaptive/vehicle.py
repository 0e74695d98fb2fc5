"""Vehicle-side epoch reception: durable, monotonic, exactly-once.

The agent mirrors the uplink's append-before-ack rule for the reverse
direction: an epoch frame is appended to the vehicle's epoch WAL (an
:class:`~repro.telemetry.uplink.wal.AppendLog`, the format and torn-tail
rule of every durable file) and flushed *before* any acknowledgment is
produced, so a crash after the ack can always rebuild the acknowledged
state.

Application is **atomic and exactly-once**: ``install`` receives the
whole :class:`~repro.adaptive.epochs.BudgetEpoch` (never a partial
budget map), an ``applied`` marker is appended first, and replay folds
each entry as it was folded live -- a crash *between* the ``recv`` append and
the ``applied`` marker recovers to "durably received, not yet applied"
and applies exactly once on recovery, never half.

The degradation ladder gates application: while the vehicle is
DEGRADED or SAFE a received epoch is acked ``deferred`` (it is durable,
so the server stops resending) and parked; the transition back to
NORMAL applies the newest parked epoch exactly once and emits the
``applied`` ack.  Monotonicity: epoch ids only move forward -- a stale
or duplicate frame is re-acked with its recorded status and changes
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Set, Tuple

from repro.adaptive.epochs import BudgetEpoch
from repro.faults.degradation import DegradationMode
from repro.schema import encode_json
from repro.telemetry.uplink.transport import (
    decode_envelope,
    decode_epoch_frame,
    encode_epoch_ack,
)
from repro.telemetry.uplink.wal import (
    AppendLog,
    WalCorruptionError,
    decode_entry,
)

#: Schema identifier of a vehicle's epoch WAL (header line).
VEHICLE_EPOCH_SCHEMA = "repro-adaptive-vehicle-epochs/1"


class SimulatedApplyCrash(RuntimeError):
    """Chaos-harness signal: the process died *after* durably receiving
    an epoch but *before* applying it (the torn-apply window)."""


@dataclass
class VehicleRecoveryReport:
    """What :meth:`VehicleEpochAgent.recover` rebuilt from disk."""

    truncated_tail: bool = False
    #: An epoch was durably received but not applied before the crash.
    pending_apply: bool = False


class VehicleEpochAgent:
    """Receives, defers, applies and acknowledges budget epochs.

    Constructing one opens its epoch WAL (``directory/epochs.log``, an
    :class:`~repro.telemetry.uplink.wal.AppendLog`) and folds whatever
    it holds, so a fresh directory starts on *initial* and a used one
    comes back where the last process left it."""

    def __init__(
        self,
        source: str,
        directory: Path,
        fsync: str = "never",
        install: Optional[Callable[[BudgetEpoch], None]] = None,
        initial: Optional[BudgetEpoch] = None,
    ):
        self.source = source
        self.install = install
        self.mode = DegradationMode.NORMAL
        #: The epoch whose budgets the vehicle's monitors run right now;
        #: the factory baseline is firmware, not WAL content.
        self.active: Optional[BudgetEpoch] = initial
        #: Durably received, waiting for the ladder to clear.
        self.pending: Optional[BudgetEpoch] = None
        # Ground-truth ledger sets (ids; disjoint classification).
        self.received: Set[int] = set()
        self.applied: Set[int] = set()
        self.superseded: Set[int] = set()
        # Counters.
        self.frames = 0
        self.foreign_frames = 0
        self.stale_frames = 0
        self.applies = 0
        self.deferrals = 0
        #: Chaos hook: die (once) in the window between the durable
        #: ``recv`` append and the ``applied`` marker.
        self.fail_after_recv = False
        self._log = AppendLog(
            Path(directory) / "epochs.log",
            {"schema": VEHICLE_EPOCH_SCHEMA, "source": source}, fsync,
        )
        self._log.replay(decode_entry, self._fold)
        if self.active is not None and self.install is not None:
            self.install(self.active)

    # ------------------------------------------------------------------
    def _fold(self, fields: list) -> None:
        """Apply one WAL entry to the state, live and on replay alike: a
        ``recv`` parks its epoch (superseding a parked one that never
        ran), an ``applied`` marker activates the parked epoch."""
        if fields[0] == "recv":
            epoch = BudgetEpoch.from_json(fields[1])
            self.received.add(epoch.epoch_id)
            if self.pending is not None:
                self.superseded.add(self.pending.epoch_id)
            self.pending = epoch
        elif fields[0] == "applied":
            if self.pending is None or self.pending.epoch_id != fields[1]:
                raise WalCorruptionError(
                    f"{self._log.path}: applied {fields[1]} was never "
                    f"received"
                )
            self.active, self.pending = self.pending, None
            self.applied.add(self.active.epoch_id)

    def _record(self, fields: list) -> None:
        self._fold(fields)
        self._log.append(encode_json(fields))
        self._log.sync()

    # ------------------------------------------------------------------
    @property
    def highest_seen(self) -> int:
        candidates = [eid for eid in self.received]
        if self.active is not None:
            candidates.append(self.active.epoch_id)
        return max(candidates) if candidates else -1

    def handle_frame(self, payload: str, now: int = 0) -> Optional[str]:
        """Process one downlink datagram; returns the ack payload (to
        go back up the uplink) or ``None`` for frames that are not a
        well-formed epoch frame for this vehicle."""
        doc = decode_envelope(payload)
        frame = decode_epoch_frame(doc) if doc is not None else None
        if frame is None:
            return None
        vehicle, epoch_doc = frame
        if vehicle != self.source:
            self.foreign_frames += 1
            return None
        try:
            epoch = BudgetEpoch.from_json(epoch_doc)
        except (ValueError, KeyError, TypeError):
            self.foreign_frames += 1
            return None
        self.frames += 1
        if epoch.epoch_id <= self.highest_seen:
            # Duplicate or stale: idempotent re-ack with recorded
            # status; nothing is re-applied, nothing re-logged.
            self.stale_frames += 1
            return encode_epoch_ack(
                self.source, epoch.epoch_id, self._status_of(epoch.epoch_id)
            )
        # Fresh: durable before any acknowledgment.
        self._record(["recv", epoch.to_json()])
        if self.fail_after_recv:
            self.fail_after_recv = False
            raise SimulatedApplyCrash(self.source)
        if self.mode is DegradationMode.NORMAL:
            return self._apply()
        self.deferrals += 1
        return encode_epoch_ack(self.source, epoch.epoch_id, "deferred")

    def _status_of(self, epoch_id: int) -> str:
        if epoch_id in self.applied or (
            self.active is not None and epoch_id <= self.active.epoch_id
        ):
            return "applied"
        return "deferred"

    def _apply(self) -> str:
        """Apply the parked epoch; returns its ``applied`` ack."""
        # Marker first: if install side effects ever crashed the
        # process, replay would re-run the (atomic, whole-epoch)
        # install rather than leave half-applied budgets behind.
        self._record(["applied", self.pending.epoch_id])
        self.applies += 1
        if self.install is not None:
            self.install(self.active)
        return encode_epoch_ack(self.source, self.active.epoch_id, "applied")

    # ------------------------------------------------------------------
    def set_mode(self, mode: DegradationMode, now: int = 0) -> Optional[str]:
        """Move along the degradation ladder.  Returning to NORMAL
        applies the parked epoch exactly once; the returned ack payload
        (if any) must be sent up so the server sees ``applied``."""
        self.mode = mode
        if mode is not DegradationMode.NORMAL or self.pending is None:
            return None
        return self._apply()

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Simulate process death: the WAL handle is dropped and nothing
        more is fsynced."""
        self._log.abandon()

    def close(self) -> None:
        self._log.close()

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        source: str,
        directory: Path,
        fsync: str = "never",
        install: Optional[Callable[[BudgetEpoch], None]] = None,
        initial: Optional[BudgetEpoch] = None,
    ) -> Tuple["VehicleEpochAgent", VehicleRecoveryReport]:
        """Rebuild the agent from its epoch WAL.

        Replay folds every entry the way it was folded live: the newest
        ``applied`` marker holds the active slot; a newer ``recv``
        without a marker is the torn-apply case and comes back as
        ``pending`` -- :meth:`apply_pending_if_normal` (or the next
        :meth:`set_mode` to NORMAL) applies it exactly once.  A torn
        final line is truncated: that receive never happened and the
        server's retry machinery will offer it again.
        """
        agent = cls(source, directory, fsync, install, initial)
        return agent, VehicleRecoveryReport(
            truncated_tail=agent._log.truncated > 0,
            pending_apply=agent.pending is not None,
        )

    def apply_pending_if_normal(self, now: int = 0) -> Optional[str]:
        """Apply a recovery-parked epoch when the ladder allows it."""
        if self.mode is DegradationMode.NORMAL and self.pending is not None:
            return self.set_mode(DegradationMode.NORMAL, now)
        return None

    # ------------------------------------------------------------------
    def ledger_json(self) -> dict:
        """Per-vehicle epoch conservation: every received id is applied,
        parked (pending) or superseded -- disjointly."""
        pending_ids = (
            {self.pending.epoch_id} if self.pending is not None else set()
        )
        union = self.applied | self.superseded | pending_ids
        disjoint = (
            len(self.applied) + len(self.superseded) + len(pending_ids)
            == len(union)
        )
        return {
            "received": len(self.received),
            "applied": len(self.applied),
            "pending": len(pending_ids),
            "superseded": len(self.superseded),
            "balanced": self.received == union and disjoint,
            "active": (
                self.active.epoch_id if self.active is not None else None
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover
        active = self.active.epoch_id if self.active is not None else None
        return (
            f"<VehicleEpochAgent {self.source} mode={self.mode.value} "
            f"active={active} pending={self.pending is not None}>"
        )
