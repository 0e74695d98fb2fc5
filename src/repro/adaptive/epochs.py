"""Budget epochs and the durable epoch ledger.

A **budget epoch** is one immutable, monotonically versioned ``d_mon``
assignment for every chain the control plane manages.  Identity is the
*content digest* of the budgets (sha256 over canonical JSON), so two
epochs with the same budgets -- e.g. a rollback re-publishing the
last-good assignment under a fresh id -- are recognizably "the same
budgets" everywhere convergence is checked.

The **epoch ledger** is the control plane's write-ahead source of
truth: an append-only, CRC-framed JSONL file (the WAL line framing of
:mod:`repro.telemetry.uplink.wal`) recording every epoch's life-cycle
transition.  Its append order *is* the state machine::

    epoch -> validated -> published(canary) -> published(fleet)
          \\-> rejected                     \\-> rollback -> ...

and :meth:`EpochLedger.record_published` refuses -- live and on replay
-- to publish an epoch id that has no ``validated`` entry.  That makes
the control plane's core invariant ("a fleet NEVER runs an epoch that
failed shadow validation") a durability property rather than a code
path: a server crash between validate and publish recovers to a ledger
whose tail says *validated, not published*, and recovery either
re-decides or abandons -- it cannot invent a publication.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.schema import SchemaVersionError
from repro.telemetry.uplink.wal import decode_entry, encode_entry

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
        body = json.dumps(
            {c: dict(sorted(s.items())) for c, s in sorted(self.budgets.items())},
            separators=(",", ":"), sort_keys=True,
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

    Entries are CRC-framed JSON lists.  Tags:

    - ``["epoch", epoch_doc]`` -- candidate recorded (DRAFT);
    - ``["validated", id, summary]`` -- shadow validation accepted;
    - ``["rejected", id, reason]`` -- shadow validation refused;
    - ``["published", id, stage, [cohort...]]`` -- rolled out
      (``stage`` in ``canary|fleet``), **only for validated ids**;
    - ``["rollback", from_id, to_id]`` -- canary regressed;
    - ``["ack", vehicle, id, status]`` -- a vehicle's durable ack.

    Appends are flushed (and fsynced per policy) before the method
    returns: the ledger is written *before* any frame leaves the
    server, the epoch-side mirror of append-before-ack.
    """

    def __init__(self, path: Path, fsync: str = "never"):
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists()
        self._file = open(self.path, "a", encoding="utf-8")
        self.epochs: Dict[int, BudgetEpoch] = {}
        self.validated: Set[int] = set()
        self.rejected: Dict[int, str] = {}
        #: Publication history, append order: (epoch_id, stage, cohort).
        self.published: List[Tuple[int, str, Tuple[str, ...]]] = []
        self.rollbacks: List[Tuple[int, int]] = []
        #: vehicle -> (epoch_id, status) of its newest ack.
        self.acks: Dict[str, Tuple[int, str]] = {}
        self.entries = 0
        if fresh:
            self._append(["header", LEDGER_SCHEMA])

    # ------------------------------------------------------------------
    def _append(self, fields: list) -> None:
        body = json.dumps(fields, separators=(",", ":"), sort_keys=False)
        self._file.write(encode_entry(body) + "\n")
        self._file.flush()
        if self.fsync == "always":
            os.fsync(self._file.fileno())
        self.entries += 1

    # ------------------------------------------------------------------
    def record_epoch(self, epoch: BudgetEpoch) -> None:
        if epoch.epoch_id in self.epochs:
            raise EpochLedgerError(
                f"epoch {epoch.epoch_id} already recorded"
            )
        self._append(["epoch", epoch.to_json()])
        self.epochs[epoch.epoch_id] = epoch

    def record_validated(self, epoch_id: int, summary: dict) -> None:
        if epoch_id not in self.epochs:
            raise EpochLedgerError(f"validated unknown epoch {epoch_id}")
        if epoch_id in self.rejected:
            raise EpochLedgerError(
                f"epoch {epoch_id} was rejected; cannot validate"
            )
        self._append(["validated", epoch_id, summary])
        self.validated.add(epoch_id)

    def record_rejected(self, epoch_id: int, reason: str) -> None:
        if epoch_id not in self.epochs:
            raise EpochLedgerError(f"rejected unknown epoch {epoch_id}")
        if epoch_id in self.validated:
            raise EpochLedgerError(
                f"epoch {epoch_id} was validated; cannot reject"
            )
        self._append(["rejected", epoch_id, reason])
        self.rejected[epoch_id] = reason

    def record_published(
        self, epoch_id: int, stage: str, cohort: Tuple[str, ...]
    ) -> None:
        """THE invariant lives here: publishing an unvalidated epoch is
        impossible, live and (via :meth:`recover`) after any crash."""
        if stage not in ("canary", "fleet"):
            raise EpochLedgerError(f"unknown publish stage {stage!r}")
        if epoch_id not in self.validated:
            raise EpochLedgerError(
                f"refusing to publish epoch {epoch_id}: no shadow "
                f"validation on record"
            )
        self._append(["published", epoch_id, stage, sorted(cohort)])
        self.published.append((epoch_id, stage, tuple(sorted(cohort))))

    def record_rollback(self, from_id: int, to_id: int) -> None:
        self._append(["rollback", from_id, to_id])
        self.rollbacks.append((from_id, to_id))

    def record_ack(self, vehicle: str, epoch_id: int, status: str) -> None:
        self._append(["ack", vehicle, epoch_id, status])
        held = self.acks.get(vehicle)
        if held is None or epoch_id >= held[0]:
            self.acks[vehicle] = (epoch_id, status)

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
        if not self._file.closed:
            self._file.close()

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls, path: Path, fsync: str = "never"
    ) -> Tuple["EpochLedger", LedgerRecoveryReport]:
        """Replay the ledger through the same state machine used live.

        A torn final line (crash mid-append) is dropped -- that event
        "never happened".  A decodable entry that violates the state
        machine (e.g. a published-but-never-validated id) raises
        :class:`EpochLedgerError`: that is corruption, not a crash."""
        path = Path(path)
        report = LedgerRecoveryReport()
        lines: List[str] = []
        if path.exists():
            lines = path.read_text(encoding="utf-8").splitlines()
        ledger = cls.__new__(cls)
        ledger.path = path
        ledger.fsync = fsync
        ledger.epochs = {}
        ledger.validated = set()
        ledger.rejected = {}
        ledger.published = []
        ledger.rollbacks = []
        ledger.acks = {}
        ledger.entries = 0
        path.parent.mkdir(parents=True, exist_ok=True)
        kept: List[str] = []
        for index, line in enumerate(lines):
            fields = decode_entry(line)
            if fields is None:
                if index == len(lines) - 1:
                    report.truncated_tail = True
                    break
                raise EpochLedgerError(
                    f"{path}: corrupt ledger entry mid-file (line {index})"
                )
            kept.append(line)
            tag = fields[0]
            if tag == "header":
                if fields[1] != LEDGER_SCHEMA:
                    raise SchemaVersionError(
                        "epoch ledger", fields[1], LEDGER_SCHEMA
                    )
            elif tag == "epoch":
                epoch = BudgetEpoch.from_json(fields[1])
                if epoch.epoch_id in ledger.epochs:
                    raise EpochLedgerError(
                        f"duplicate epoch {epoch.epoch_id} in ledger"
                    )
                ledger.epochs[epoch.epoch_id] = epoch
            elif tag == "validated":
                ledger.validated.add(int(fields[1]))
            elif tag == "rejected":
                ledger.rejected[int(fields[1])] = str(fields[2])
            elif tag == "published":
                epoch_id, stage = int(fields[1]), str(fields[2])
                if epoch_id not in ledger.validated:
                    raise EpochLedgerError(
                        f"ledger publishes unvalidated epoch {epoch_id}"
                    )
                ledger.published.append(
                    (epoch_id, stage, tuple(fields[3]))
                )
            elif tag == "rollback":
                ledger.rollbacks.append((int(fields[1]), int(fields[2])))
            elif tag == "ack":
                vehicle, epoch_id, status = (
                    str(fields[1]), int(fields[2]), str(fields[3])
                )
                held = ledger.acks.get(vehicle)
                if held is None or epoch_id >= held[0]:
                    ledger.acks[vehicle] = (epoch_id, status)
            # Unknown tags are skipped (forward compatibility).
            report.entries += 1
        if report.truncated_tail:
            # Repair in place so the next append starts a clean line.
            path.write_text(
                "\n".join(kept) + ("\n" if kept else ""), encoding="utf-8"
            )
        ledger._file = open(path, "a", encoding="utf-8")
        ledger.entries = report.entries
        if not kept:
            ledger._append(["header", LEDGER_SCHEMA])
        return ledger, report

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<EpochLedger epochs={len(self.epochs)} "
            f"validated={len(self.validated)} rejected={len(self.rejected)} "
            f"published={len(self.published)}>"
        )
