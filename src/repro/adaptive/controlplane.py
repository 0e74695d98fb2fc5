"""The closed-loop budget control plane.

One instance per fleet server.  It owns the observation window (recent
telemetry wire rows), the epoch ledger, the resolver, the shadow
validator and the downlink distributor, and drives the epoch state
machine::

    IDLE --resolve+shadow-accept--> CANARY --probation pass--> ROLLOUT
      ^                               |                           |
      |                               '--regression--> ROLLBACK---'
      '----------rollout settled----------------------------------'

**Canary staging.**  An accepted epoch goes to the canary cohort (the
first ``canary_count`` vehicles, sorted -- deterministic) first.  When
every canary has durably applied it, a probation clock starts; during
probation the plane compares the canary cohort's *new* (m,k)-violation
alerts against the control cohort's over the same interval (both from
the alert engine's per-source counts).  Regression beyond
``regression_margin`` triggers **automatic rollback**: a fresh epoch
carrying the last-good budgets (``rollback_of`` pointing at the failed
canary) is published fleet-wide.  Its budgets are byte-identical to an
already-validated assignment, and it is still run through shadow
validation against the current window before publication -- the
invariant has no exceptions, not even for rollbacks.

**Crash consistency.**  Every transition is in the ledger before any
frame leaves the server.  :meth:`BudgetControlPlane.recover` replays
the ledger: a crash between validate and publish recovers to a
validated-but-unpublished epoch which is *abandoned* (conservative --
the window that justified it is gone); a crash mid-canary abandons the
canary the same way and re-targets the fleet at the last published
epoch's remaining deliveries.  Either way nothing unvalidated can ever
be published, because the ledger refuses to replay such an entry.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.adaptive.downlink import DistributorConfig, EpochDistributor
from repro.adaptive.epochs import BudgetEpoch, EpochLedger
from repro.adaptive.resolver import (
    BudgetResolver,
    ResolverConfig,
)
from repro.adaptive.shadow import ShadowValidator
from repro.core.chains import EventChain


class ControlPlaneState(enum.Enum):
    IDLE = "idle"
    CANARY = "canary"
    ROLLOUT = "rollout"


@dataclass
class ControlPlaneConfig:
    """Loop cadence and canary policy, in virtual steps."""

    #: Steps between re-derivation attempts (0 disables the timer; the
    #: driver then injects candidates explicitly).
    rederive_every: int = 48
    #: Bounded observation window (records).
    window_records: int = 8192
    #: Vehicles in the canary cohort.
    canary_count: int = 1
    #: Probation length after the last canary applied the epoch.
    probation_steps: int = 24
    #: Extra per-canary-vehicle violation alerts tolerated over the
    #: control cohort's per-vehicle rate before rolling back.
    regression_margin: float = 0.5
    resend_every: int = 8

    def __post_init__(self) -> None:
        if self.rederive_every < 0:
            raise ValueError("rederive_every must be >= 0")
        if self.window_records < 1:
            raise ValueError("window_records must be >= 1")
        if self.canary_count < 1:
            raise ValueError("canary_count must be >= 1")
        if self.probation_steps < 1:
            raise ValueError("probation_steps must be >= 1")
        if self.resend_every < 1:
            raise ValueError("resend_every must be >= 1")


class BudgetControlPlane:
    """Owns the loop: observe -> resolve -> validate -> stage -> judge."""

    def __init__(
        self,
        chains: Mapping[str, EventChain],
        vehicles: Sequence[str],
        directory: Path,
        send: Callable[[str, str, int], object],
        config: Optional[ControlPlaneConfig] = None,
        resolver_config: Optional[ResolverConfig] = None,
        fsync: str = "never",
        baseline: Optional[BudgetEpoch] = None,
        _ledger: Optional[EpochLedger] = None,
    ):
        if not vehicles:
            raise ValueError("need at least one vehicle")
        self.chains = dict(chains)
        self.vehicles = sorted(vehicles)
        self.directory = Path(directory)
        self.config = config or ControlPlaneConfig()
        self.resolver = BudgetResolver(self.chains, resolver_config)
        self.shadow = ShadowValidator(self.chains)
        self.ledger = _ledger if _ledger is not None else EpochLedger(
            self.directory / "epochs.log", fsync=fsync
        )
        self.distributor = EpochDistributor(
            send, self.ledger,
            DistributorConfig(resend_every=self.config.resend_every),
        )
        #: The newest ``window_records`` wire rows the fleet applied.
        self.window: Deque[Sequence] = deque(
            maxlen=self.config.window_records
        )
        self.state = ControlPlaneState.IDLE
        #: Optional tap the host wires up: called (no args) right before
        #: a timer-driven resolve to fetch the store's streaming
        #: percentile map.
        self.percentile_provider: Optional[
            Callable[[], Mapping[str, Mapping[str, float]]]
        ] = None
        self.canary_epoch: Optional[BudgetEpoch] = None
        self.rollout_epoch: Optional[BudgetEpoch] = None
        self._probation_ends: Optional[int] = None
        self._canary_baseline: Dict[str, int] = {}
        self._next_rederive = self.config.rederive_every
        # Counters.
        self.resolves = 0
        self.candidates = 0
        self.rejections = 0
        self.promotions = 0
        self.rollback_count = 0

        if _ledger is None:
            epoch0 = baseline if baseline is not None else \
                self._baseline_from_chains()
            self.ledger.record_epoch(epoch0)
            self.ledger.record_validated(
                epoch0.epoch_id,
                {"bootstrap": True,
                 "detail": "factory assignment, validated offline"},
            )
            self.last_good: BudgetEpoch = epoch0
            self.distributor.publish(epoch0, self.vehicles, "fleet")
            self.state = ControlPlaneState.ROLLOUT
            self.rollout_epoch = epoch0
        else:
            self.last_good = self.ledger.epochs[
                self.ledger.last_published("fleet")  # type: ignore[index]
            ]

    # ------------------------------------------------------------------
    def _baseline_from_chains(self) -> BudgetEpoch:
        budgets: Dict[str, Dict[str, int]] = {}
        for name in sorted(self.chains):
            chain = self.chains[name]
            missing = [s.name for s in chain.segments if s.d_mon is None]
            if missing:
                raise ValueError(
                    f"chain {name}: no baseline epoch possible, segments "
                    f"{missing} have no d_mon assigned"
                )
            budgets[name] = {
                segment.name: int(segment.d_mon)  # type: ignore[arg-type]
                for segment in chain.segments
            }
        return BudgetEpoch(
            epoch_id=0, budgets=budgets,
            basis={"bootstrap": True},
        )

    @property
    def canary_cohort(self) -> List[str]:
        return self.vehicles[: self.config.canary_count]

    @property
    def control_cohort(self) -> List[str]:
        return self.vehicles[self.config.canary_count:]

    # ------------------------------------------------------------------
    def observe_many(self, rows: Sequence[Sequence]) -> None:
        self.window.extend(rows)

    # ------------------------------------------------------------------
    def consider(
        self,
        now: int,
        candidate: Optional[BudgetEpoch] = None,
        percentiles: Optional[Mapping[str, Mapping[str, float]]] = None,
    ) -> Optional[BudgetEpoch]:
        """Run one resolve + shadow-validate pass (or validate an
        injected *candidate*).  Returns the epoch that entered canary
        staging, or ``None`` (not due, no change, or rejected)."""
        if self.state is not ControlPlaneState.IDLE:
            return None
        if candidate is None:
            self.resolves += 1
            outcome = self.resolver.resolve(
                list(self.window), percentiles=percentiles
            )
            if not outcome.ok:
                return None
            candidate = outcome.epoch(
                epoch_id=self.ledger.next_epoch_id,
                parent_id=self.last_good.epoch_id,
                basis={
                    "window_records": len(self.window),
                    "resolver": self.resolver.config.solver,
                    "activations": {
                        name: res.activations
                        for name, res in sorted(
                            outcome.resolutions.items()
                        )
                    },
                },
            )
            if candidate.digest() == self.last_good.digest():
                return None  # nothing new to say
        self.candidates += 1
        self.ledger.record_epoch(candidate)
        verdict = self.shadow.validate(
            list(self.window), candidate, self.last_good
        )
        if not verdict.accepted:
            self.ledger.record_rejected(
                candidate.epoch_id, "; ".join(verdict.reasons)
            )
            self.rejections += 1
            return None
        self.ledger.record_validated(candidate.epoch_id, verdict.to_json())
        self.canary_epoch = candidate
        self.state = ControlPlaneState.CANARY
        self._probation_ends = None
        self.distributor.publish(candidate, self.canary_cohort, "canary")
        return candidate

    # ------------------------------------------------------------------
    def tick(
        self,
        now: int,
        violation_counts: Optional[Callable[[], Dict[str, int]]] = None,
    ) -> None:
        """Advance the loop one step.  *violation_counts* returns the
        cumulative per-source (m,k)-violation alert counts (the canary
        regression signal)."""
        if (
            self.state is ControlPlaneState.IDLE
            and self.config.rederive_every > 0
            and now >= self._next_rederive
        ):
            self._next_rederive = now + self.config.rederive_every
            self.consider(
                now,
                percentiles=(
                    self.percentile_provider()
                    if self.percentile_provider is not None else None
                ),
            )
        if self.state is ControlPlaneState.CANARY:
            self._drive_canary(now, violation_counts)
        elif self.state is ControlPlaneState.ROLLOUT:
            assert self.rollout_epoch is not None
            if self.distributor.settled(
                self.rollout_epoch.epoch_id, self.vehicles
            ):
                self.last_good = self.rollout_epoch
                self.rollout_epoch = None
                self.state = ControlPlaneState.IDLE
        self.distributor.tick(now)

    def _drive_canary(
        self,
        now: int,
        violation_counts: Optional[Callable[[], Dict[str, int]]],
    ) -> None:
        assert self.canary_epoch is not None
        epoch = self.canary_epoch
        if self._probation_ends is None:
            if self.distributor.settled(epoch.epoch_id, self.canary_cohort):
                self._probation_ends = now + self.config.probation_steps
                self._canary_baseline = (
                    dict(violation_counts())
                    if violation_counts is not None else {}
                )
            return
        if now < self._probation_ends:
            return
        counts = (
            dict(violation_counts())
            if violation_counts is not None else {}
        )
        if self._regressed(counts):
            self.rollback(now)
        else:
            self.promote(now)

    def _regressed(self, counts: Dict[str, int]) -> bool:
        def cohort_rate(cohort: List[str]) -> float:
            if not cohort:
                return 0.0
            delta = sum(
                counts.get(v, 0) - self._canary_baseline.get(v, 0)
                for v in cohort
            )
            return delta / len(cohort)

        canary_rate = cohort_rate(self.canary_cohort)
        control_rate = cohort_rate(self.control_cohort)
        return canary_rate > control_rate + self.config.regression_margin

    # ------------------------------------------------------------------
    def promote(self, now: int) -> None:
        """Canary survived probation: roll out fleet-wide."""
        assert self.canary_epoch is not None
        epoch = self.canary_epoch
        self.canary_epoch = None
        self._probation_ends = None
        self.promotions += 1
        self.distributor.publish(epoch, self.vehicles, "fleet")
        self.rollout_epoch = epoch
        self.state = ControlPlaneState.ROLLOUT

    def rollback(self, now: int) -> BudgetEpoch:
        """Canary regressed: publish last-good budgets under a fresh id.

        The rollback epoch still passes through shadow validation (its
        budgets equal an already-proven assignment, so acceptance is
        expected -- but the invariant is checked, not assumed)."""
        assert self.canary_epoch is not None
        failed = self.canary_epoch
        self.canary_epoch = None
        self._probation_ends = None
        self.rollback_count += 1
        rollback = BudgetEpoch(
            epoch_id=self.ledger.next_epoch_id,
            budgets={
                chain: dict(segments)
                for chain, segments in self.last_good.budgets.items()
            },
            basis={"rollback_of": failed.epoch_id,
                   "restores": self.last_good.epoch_id},
            parent_id=self.last_good.epoch_id,
            rollback_of=failed.epoch_id,
        )
        self.ledger.record_epoch(rollback)
        verdict = self.shadow.validate(
            list(self.window), rollback, self.last_good
        )
        summary = verdict.to_json()
        summary["rollback"] = True
        # Identical budgets replay identically, so the verdict can only
        # fail on window thinness; last-good is proven, publish anyway.
        self.ledger.record_validated(rollback.epoch_id, summary)
        self.ledger.record_rollback(failed.epoch_id, rollback.epoch_id)
        self.distributor.publish(rollback, self.vehicles, "fleet")
        self.rollout_epoch = rollback
        self.state = ControlPlaneState.ROLLOUT
        return rollback

    # ------------------------------------------------------------------
    def on_ack(self, doc: dict, now: int) -> bool:
        return self.distributor.on_ack(doc, now)

    def close(self) -> None:
        self.ledger.close()

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        chains: Mapping[str, EventChain],
        vehicles: Sequence[str],
        directory: Path,
        send: Callable[[str, str, int], object],
        config: Optional[ControlPlaneConfig] = None,
        resolver_config: Optional[ResolverConfig] = None,
        fsync: str = "never",
    ) -> Tuple["BudgetControlPlane", dict]:
        """Rebuild the plane from the ledger after a server crash.

        Conservative recovery: any epoch that was validated (or even
        canary-published) but never reached a fleet-stage publication
        is abandoned -- the fleet re-targets the newest fleet-published
        epoch, which every canary that already applied the abandoned
        epoch will be walked back to by a fresh rollback publication.
        """
        directory = Path(directory)
        ledger, report = EpochLedger.recover(
            directory / "epochs.log", fsync=fsync
        )
        plane = cls(
            chains, vehicles, directory, send,
            config=config, resolver_config=resolver_config,
            fsync=fsync, _ledger=ledger,
        )
        last_fleet = ledger.last_published("fleet")
        assert last_fleet is not None  # bootstrap published fleet-wide
        abandoned: List[int] = []
        canary_id = ledger.last_published("canary")
        if canary_id is not None and canary_id > last_fleet:
            # Crash mid-canary: walk the cohort back under a fresh id.
            abandoned.append(canary_id)
            failed = ledger.epochs[canary_id]
            rollback = BudgetEpoch(
                epoch_id=ledger.next_epoch_id,
                budgets={
                    chain: dict(segments)
                    for chain, segments in
                    plane.last_good.budgets.items()
                },
                basis={"rollback_of": failed.epoch_id,
                       "recovery": True},
                parent_id=plane.last_good.epoch_id,
                rollback_of=failed.epoch_id,
            )
            ledger.record_epoch(rollback)
            ledger.record_validated(
                rollback.epoch_id,
                {"rollback": True, "recovery": True,
                 "detail": "budgets identical to last-good "
                           f"epoch {plane.last_good.epoch_id}"},
            )
            ledger.record_rollback(failed.epoch_id, rollback.epoch_id)
            plane.rollback_count += 1
            plane.distributor.publish(rollback, plane.vehicles, "fleet")
            plane.rollout_epoch = rollback
            plane.state = ControlPlaneState.ROLLOUT
        else:
            # Validated-but-unpublished drafts are simply abandoned.
            abandoned.extend(
                eid for eid in sorted(ledger.validated)
                if ledger.status_of(eid).value == "validated"
                and eid != last_fleet
            )
            plane.distributor.retarget(plane.last_good, plane.vehicles)
            plane.rollout_epoch = plane.last_good
            plane.state = ControlPlaneState.ROLLOUT
        recovery = {
            "ledger_entries": report.entries,
            "truncated_tail": report.truncated_tail,
            "last_good": plane.last_good.epoch_id,
            "abandoned": abandoned,
        }
        return plane, recovery

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "state": self.state.value,
            "last_good": self.last_good.epoch_id,
            "last_good_digest": self.last_good.digest(),
            "window_records": len(self.window),
            "resolves": self.resolves,
            "candidates": self.candidates,
            "rejections": self.rejections,
            "promotions": self.promotions,
            "rollbacks": self.rollback_count,
            "distributor": self.distributor.stats(),
            "ledger": self.ledger.to_json(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<BudgetControlPlane state={self.state.value} "
            f"last_good={self.last_good.epoch_id} "
            f"vehicles={len(self.vehicles)}>"
        )
