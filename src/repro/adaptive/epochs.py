"""Budget epochs and the durable epoch ledger.

A **budget epoch** is one immutable, monotonically versioned ``d_mon``
assignment for every chain the control plane manages.  Identity is the
*content digest* of the budgets (sha256 over canonical JSON), so two
epochs with the same budgets -- e.g. a rollback re-publishing the
last-good assignment under a fresh id -- are recognizably "the same
budgets" everywhere convergence is checked.

The **epoch ledger** is the control plane's write-ahead source of
truth: an append-only log (:class:`repro.telemetry.uplink.wal.AppendLog`,
the format, scanner and torn-tail rule of every durable file) recording
every epoch's life-cycle transition.  Its append order *is* the state
machine::

    epoch -> validated -> published(canary) -> published(fleet)
          \\-> rejected                     \\-> rollback -> ...

and one fold per entry refuses -- live and on replay -- to publish an
epoch id that has no ``validated`` entry.  That makes
the control plane's core invariant ("a fleet NEVER runs an epoch that
failed shadow validation") a durability property rather than a code
path: a server crash between validate and publish recovers to a ledger
whose tail says *validated, not published*, and recovery either
re-decides or abandons -- it cannot invent a publication.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.schema import SchemaVersionError, encode_json, encode_json_sorted
from repro.telemetry.uplink.wal import AppendLog, decode_entry

#: Schema identifier of one serialized budget epoch.
EPOCH_SCHEMA = "repro-adaptive-epoch/1"
#: Schema identifier of the epoch ledger file (header line).
LEDGER_SCHEMA = "repro-adaptive-ledger/1"


class EpochStatus(enum.Enum):
    """Life-cycle of one epoch, as reconstructed from the ledger."""

    DRAFT = "draft"
    VALIDATED = "validated"
    REJECTED = "rejected"
    CANARY = "canary"
    FLEET = "fleet"
    ROLLED_BACK = "rolled_back"


class EpochLedgerError(RuntimeError):
    """An append that would violate the epoch state machine."""


@dataclass(frozen=True)
class BudgetEpoch:
    """One immutable per-chain ``d_mon`` assignment.

    ``budgets`` maps chain name -> segment name -> ``d_mon`` (ns);
    ``basis`` is free-form provenance (window size, percentiles, the
    solver used) carried for auditability, excluded from identity.
    """

    epoch_id: int
    budgets: Mapping[str, Mapping[str, int]]
    basis: Mapping[str, object] = field(default_factory=dict)
    parent_id: int = -1
    rollback_of: Optional[int] = None

    def __post_init__(self) -> None:
        if self.epoch_id < 0:
            raise ValueError("epoch_id must be >= 0")
        if not self.budgets:
            raise ValueError("an epoch needs at least one chain budget")
        for chain, segments in self.budgets.items():
            if not segments:
                raise ValueError(f"chain {chain}: empty budget map")
            for segment, d_mon in segments.items():
                if not isinstance(d_mon, int) or d_mon <= 0:
                    raise ValueError(
                        f"{chain}/{segment}: d_mon must be a positive "
                        f"int, got {d_mon!r}"
                    )

    # ------------------------------------------------------------------
    def flat_budgets(self) -> Dict[str, int]:
        """Per-segment budgets across chains (min wins on shared
        segments -- the conservative monitor threshold)."""
        flat: Dict[str, int] = {}
        for chain in sorted(self.budgets):
            for segment, d_mon in self.budgets[chain].items():
                held = flat.get(segment)
                if held is None or d_mon < held:
                    flat[segment] = d_mon
        return flat

    def chain_budget(self, chain: str) -> Dict[str, int]:
        return dict(self.budgets[chain])

    def digest(self) -> str:
        """Content identity: sha256 over the canonical budget map."""
        body = encode_json_sorted(
            {c: dict(sorted(s.items())) for c, s in sorted(self.budgets.items())}
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "schema": EPOCH_SCHEMA,
            "epoch_id": self.epoch_id,
            "budgets": {
                chain: dict(sorted(segments.items()))
                for chain, segments in sorted(self.budgets.items())
            },
            "basis": dict(self.basis),
            "parent_id": self.parent_id,
            "rollback_of": self.rollback_of,
        }

    @classmethod
    def from_json(cls, data: dict) -> "BudgetEpoch":
        if not isinstance(data, dict) or data.get("schema") != EPOCH_SCHEMA:
            raise SchemaVersionError(
                "budget epoch",
                data.get("schema") if isinstance(data, dict) else type(data).__name__,
                EPOCH_SCHEMA,
            )
        return cls(
            epoch_id=int(data["epoch_id"]),
            budgets={
                chain: {seg: int(d) for seg, d in segments.items()}
                for chain, segments in data["budgets"].items()
            },
            basis=dict(data.get("basis", {})),
            parent_id=int(data.get("parent_id", -1)),
            rollback_of=data.get("rollback_of"),
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<BudgetEpoch #{self.epoch_id} chains={len(self.budgets)} "
            f"digest={self.digest()[:8]}>"
        )


@dataclass
class LedgerRecoveryReport:
    """What :meth:`EpochLedger.recover` rebuilt from disk."""

    entries: int = 0
    truncated_tail: bool = False


class EpochLedger:
    """Append-only durable record of every epoch life-cycle event.

    An :class:`~repro.telemetry.uplink.wal.AppendLog`: a schema header
    line, then one CRC-framed JSON list per event.  Tags:

    - ``["epoch", epoch_doc]`` -- candidate recorded (DRAFT);
    - ``["validated", id, summary]`` -- shadow validation accepted;
    - ``["rejected", id, reason]`` -- shadow validation refused;
    - ``["published", id, stage, [cohort...]]`` -- rolled out
      (``stage`` in ``canary|fleet``), **only for validated ids**;
    - ``["rollback", from_id, to_id]`` -- canary regressed;
    - ``["ack", vehicle, id, status]`` -- a vehicle's durable ack.

    Every entry goes through one fold, :meth:`_fold`, which refuses an
    entry that breaks the state machine: the ``record_*`` methods fold
    then append (flushed, fsynced per policy, before they return: the
    ledger is written *before* any frame leaves the server, the
    epoch-side mirror of append-before-ack), and opening an existing
    ledger folds every entry on disk.
    """

    def __init__(self, path: Path, fsync: str = "never"):
        self.epochs: Dict[int, BudgetEpoch] = {}
        self.validated: Set[int] = set()
        self.rejected: Dict[int, str] = {}
        #: Publication history, append order: (epoch_id, stage, cohort).
        self.published: List[Tuple[int, str, Tuple[str, ...]]] = []
        self.rollbacks: List[Tuple[int, int]] = []
        #: vehicle -> (epoch_id, status) of its newest ack.
        self.acks: Dict[str, Tuple[int, str]] = {}
        self._log = AppendLog(path, {"schema": LEDGER_SCHEMA}, fsync)
        self._log.replay(decode_entry, self._fold)

    @property
    def entries(self) -> int:
        """Lines of the ledger file, its header included."""
        return 1 + self._log.entries

    # ------------------------------------------------------------------
    def _fold(self, fields: list) -> None:
        """Apply one entry to the state, live and on replay alike, or
        refuse it changing nothing (an unknown tag changes nothing)."""
        tag = fields[0]
        if tag == "epoch":
            epoch = BudgetEpoch.from_json(fields[1])
            if epoch.epoch_id in self.epochs:
                raise EpochLedgerError(
                    f"epoch {epoch.epoch_id} already recorded"
                )
            self.epochs[epoch.epoch_id] = epoch
        elif tag == "validated":
            epoch_id = fields[1]
            if epoch_id not in self.epochs:
                raise EpochLedgerError(f"validated unknown epoch {epoch_id}")
            if epoch_id in self.rejected:
                raise EpochLedgerError(
                    f"epoch {epoch_id} was rejected; cannot validate"
                )
            self.validated.add(epoch_id)
        elif tag == "rejected":
            _, epoch_id, reason = fields
            if epoch_id not in self.epochs:
                raise EpochLedgerError(f"rejected unknown epoch {epoch_id}")
            if epoch_id in self.validated:
                raise EpochLedgerError(
                    f"epoch {epoch_id} was validated; cannot reject"
                )
            self.rejected[epoch_id] = reason
        elif tag == "published":
            # THE invariant: publishing an unvalidated epoch is
            # impossible, live and after any crash.
            _, epoch_id, stage, cohort = fields
            if stage not in ("canary", "fleet"):
                raise EpochLedgerError(f"unknown publish stage {stage!r}")
            if epoch_id not in self.validated:
                raise EpochLedgerError(
                    f"refusing to publish unvalidated epoch {epoch_id}: "
                    f"no shadow validation on record"
                )
            self.published.append((epoch_id, stage, tuple(cohort)))
        elif tag == "rollback":
            self.rollbacks.append((fields[1], fields[2]))
        elif tag == "ack":
            _, vehicle, epoch_id, status = fields
            held = self.acks.get(vehicle)
            if held is None or epoch_id >= held[0]:
                self.acks[vehicle] = (epoch_id, status)

    def _record(self, fields: list) -> None:
        self._fold(fields)
        self._log.append(encode_json(fields))
        self._log.sync()

    def record_epoch(self, epoch: BudgetEpoch) -> None:
        self._record(["epoch", epoch.to_json()])

    def record_validated(self, epoch_id: int, summary: dict) -> None:
        self._record(["validated", epoch_id, summary])

    def record_rejected(self, epoch_id: int, reason: str) -> None:
        self._record(["rejected", epoch_id, reason])

    def record_published(
        self, epoch_id: int, stage: str, cohort: Tuple[str, ...]
    ) -> None:
        self._record(["published", epoch_id, stage, sorted(cohort)])

    def record_rollback(self, from_id: int, to_id: int) -> None:
        self._record(["rollback", from_id, to_id])

    def record_ack(self, vehicle: str, epoch_id: int, status: str) -> None:
        self._record(["ack", vehicle, epoch_id, status])

    # ------------------------------------------------------------------
    def status_of(self, epoch_id: int) -> EpochStatus:
        if epoch_id in self.rejected:
            return EpochStatus.REJECTED
        if any(src == epoch_id for src, _ in self.rollbacks):
            return EpochStatus.ROLLED_BACK
        stages = [s for eid, s, _ in self.published if eid == epoch_id]
        if "fleet" in stages:
            return EpochStatus.FLEET
        if "canary" in stages:
            return EpochStatus.CANARY
        if epoch_id in self.validated:
            return EpochStatus.VALIDATED
        return EpochStatus.DRAFT

    @property
    def next_epoch_id(self) -> int:
        return max(self.epochs) + 1 if self.epochs else 0

    def last_published(self, stage: str = "fleet") -> Optional[int]:
        for epoch_id, entry_stage, _ in reversed(self.published):
            if entry_stage == stage:
                return epoch_id
        return None

    def to_json(self) -> dict:
        return {
            "schema": LEDGER_SCHEMA,
            "entries": self.entries,
            "epochs": sorted(self.epochs),
            "validated": sorted(self.validated),
            "rejected": {str(k): v for k, v in sorted(self.rejected.items())},
            "published": [
                {"epoch_id": eid, "stage": stage, "cohort": list(cohort)}
                for eid, stage, cohort in self.published
            ],
            "rollbacks": [list(pair) for pair in self.rollbacks],
            "acks": {
                vehicle: {"epoch_id": eid, "status": status}
                for vehicle, (eid, status) in sorted(self.acks.items())
            },
        }

    def close(self) -> None:
        self._log.close()

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls, path: Path, fsync: str = "never"
    ) -> Tuple["EpochLedger", LedgerRecoveryReport]:
        """Open the ledger after a crash: every entry on disk goes
        through the fold the live appends use.

        A torn final line (crash mid-append) is truncated away -- that
        event "never happened"; damage anywhere else raises
        :class:`~repro.telemetry.uplink.wal.WalCorruptionError`, and an
        intact entry the state machine refuses (e.g. a
        published-but-never-validated id) raises
        :class:`EpochLedgerError`: that is corruption, not a crash."""
        ledger = cls(path, fsync)
        return ledger, LedgerRecoveryReport(
            entries=ledger.entries, truncated_tail=ledger._log.truncated > 0
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<EpochLedger epochs={len(self.epochs)} "
            f"validated={len(self.validated)} rejected={len(self.rejected)} "
            f"published={len(self.published)}>"
        )
