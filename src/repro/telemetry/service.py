"""The telemetry service: wire rows -> store -> alert engine, one object.

:class:`TelemetryService` is the single-process reference deployment of
the subsystem.  Every producer (the fleet ingestor's flush, the fault
campaign's replay, :func:`~repro.telemetry.loadgen.run_load`, the
adaptive control plane) hands :meth:`ingest_batch` a list of wire rows,
which is admitted against the configured capacity and folded into the
sharded store in one pass; :meth:`poll` runs the time-based rules
(heartbeat, backpressure drops).  Everything is deterministic given the
record stream -- no wall clock is read anywhere -- which is what lets
the fault campaign assert byte-identical alert logs across serial and
parallel runs.

The conservation law every caller may assert (and the CLI does):

    offered == applied + dropped

i.e. **no silent drops** -- see :meth:`accounting_ok`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from repro.telemetry.alerts import AlertEngine, AlertLog
from repro.telemetry.records import TIMESTAMP_NS
from repro.telemetry.store import ChainStateStore, StoreConfig

#: A wire row's ``timestamp_ns`` field.
_TIMESTAMP = itemgetter(TIMESTAMP_NS)

#: Default admission capacity: the most records one offer admits.
DEFAULT_CAPACITY = 65536


@dataclass
class ServiceConfig:
    """All knobs of one service instance."""

    #: The most records one :meth:`TelemetryService.ingest_batch` call
    #: admits; the newest records past it are dropped and counted.
    queue_capacity: int = DEFAULT_CAPACITY
    store: StoreConfig = field(default_factory=StoreConfig)

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")


class TelemetryService:
    """Bounded row ingestion into a sharded store with alerting."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.store = ChainStateStore(self.config.store)
        self.engine = AlertEngine()
        #: Highest record timestamp applied so far (data time).
        self.watermark_ns = 0
        #: Records offered to, applied by and dropped by *this
        #: service*.  ``applied`` is distinct from ``store.applied``, a
        #: lifetime counter that survives snapshot/restore: the
        #: accounting law must balance against this service, not
        #: against a previous life.
        self.offered = 0
        self.applied = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    @property
    def alert_log(self) -> AlertLog:
        return self.engine.log

    # ------------------------------------------------------------------
    def ingest_batch(self, rows: Sequence[Sequence]) -> int:
        """Offer a list of wire rows; returns how many were accepted.

        At most ``queue_capacity`` rows are admitted; the newest rows
        past it are dropped and counted, never lost silently.  The
        accepted prefix is one
        :meth:`~repro.telemetry.store.ChainStateStore.apply_batch`, and
        its flagged outcomes are fed to the alert engine.
        """
        n = len(rows)
        capacity = self.config.queue_capacity
        self.offered += n
        if n > capacity:
            self.dropped += n - capacity
            rows = rows[:capacity]
            n = capacity
        if n:
            outcomes = self.store.apply_batch(rows)
            watermark = max(map(_TIMESTAMP, rows))
            if watermark > self.watermark_ns:
                self.watermark_ns = watermark
            observe = self.engine.observe
            for outcome in outcomes:
                observe(outcome)
            self.applied += n
        return n

    # ``e2e_bench/trace.py:426`` wraps ``ingest_many`` and ``pump`` by
    # name and raises ``LookupError`` when either is missing; nothing in
    # ``src/`` calls them.
    def ingest_many(self, rows: Iterable[Sequence]) -> int:
        """:meth:`ingest_batch` over wire rows (kept for the e2e tracer)."""
        return self.ingest_batch(list(rows))

    def pump(self, max_records: Optional[int] = None) -> int:
        """Nothing is ever queued: returns 0 (kept for the e2e tracer)."""
        return 0

    def poll(self, now_ns: Optional[int] = None) -> int:
        """Run the time-based rules at *now_ns* (default: the data
        watermark -- correct for replay; a live deployment passes its
        clock)."""
        if now_ns is None:
            now_ns = self.watermark_ns
        return self.engine.poll(now_ns, self.store, self.dropped)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def accounting_ok(self) -> bool:
        """No silent drops: offered == applied + dropped."""
        return self.offered == self.applied + self.dropped

    def stats(self) -> dict:
        """Counter snapshot for reports (plain types)."""
        return {
            "offered": self.offered,
            "applied": self.applied,
            "dropped": self.dropped,
            "accounting_ok": self.accounting_ok(),
            "keys": len(self.store),
            "sources": len(self.store.sources),
            "violations": self.store.total_violations(),
            "alerts": len(self.engine.log),
            "alerts_by_rule": self.engine.log.counts_by_rule(),
        }

    # ------------------------------------------------------------------
    # Snapshot / restore (store state)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Exact store snapshot."""
        return self.store.snapshot()

    def restore(self, data: dict) -> None:
        """Replace the store with a snapshot's state.

        The data clock resumes where the snapshot's left it: every
        applied record refreshes its source's ``last_seen_ns``, so the
        largest of them is the live watermark.
        """
        self.store = ChainStateStore.restore(data)
        self.watermark_ns = max(
            [0] + [s.last_seen_ns for s in self.store.sources.values()]
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TelemetryService applied={self.applied} "
            f"dropped={self.dropped} alerts={len(self.engine.log)}>"
        )
