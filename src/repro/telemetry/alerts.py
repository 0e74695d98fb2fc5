"""The rules-based alerting engine and the alert log.

Rules fire on two paths:

- **apply-path rules** consume the :class:`~repro.telemetry.store.ApplyOutcome`
  facts of every applied record: (m,k) window violated (CRITICAL),
  (m,k) margin exhausted -- one more miss violates -- (WARNING),
  per-segment latency over budget for N consecutive evaluation windows
  (WARNING), sequence gap in a source's record stream (WARNING);
- **poll-path rules** run against a supplied "now": heartbeat gap (a
  source silent longer than its allowance, CRITICAL) and backpressure
  drops (CRITICAL).

Alert identity is deliberately episodic: a margin stays exhausted for
many records but alerts once per episode; a heartbeat gap alerts once
until traffic resumes.  Flooding an operator with one alert per record
is how real deployments train people to ignore pagers.

Timestamps on alerts are *record/poll* timestamps -- data time, not
wall-clock -- so a replayed campaign produces byte-identical alert logs
in serial and parallel runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from repro.schema import encode_json
from repro.telemetry.records import (
    ACTIVATION,
    CHAIN,
    SEGMENT,
    SEQ,
    SOURCE,
    TIMESTAMP_NS,
)
from repro.telemetry.store import ApplyOutcome, ChainStateStore

#: Rule identifiers (the stable vocabulary of the alert log).
RULE_MK_VIOLATION = "mk_violation"
RULE_MK_MARGIN = "mk_margin_exhausted"
RULE_LATENCY_BUDGET = "latency_over_budget"
RULE_SEQ_GAP = "sequence_gap"
RULE_HEARTBEAT = "heartbeat_gap"
RULE_QUEUE_DROPS = "queue_drops"


class AlertSeverity(enum.Enum):
    """How loudly an alert should ring."""

    INFO = "info"
    WARNING = "warning"
    CRITICAL = "critical"


@dataclass(frozen=True)
class Alert:
    """One raised alert (immutable, JSON-able via :meth:`to_json`)."""

    timestamp_ns: int
    rule: str
    severity: AlertSeverity
    source: str
    chain: str = ""
    segment: str = ""
    activation: int = -1
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "timestamp_ns": self.timestamp_ns,
            "rule": self.rule,
            "severity": self.severity.value,
            "source": self.source,
            "chain": self.chain,
            "segment": self.segment,
            "activation": self.activation,
            "detail": self.detail,
        }


@dataclass
class AlertLog:
    """Append-only alert record with aggregate views."""

    alerts: List[Alert] = field(default_factory=list)

    def append(self, alert: Alert) -> None:
        self.alerts.append(alert)

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for alert in self.alerts:
            counts[alert.rule] = counts.get(alert.rule, 0) + 1
        return dict(sorted(counts.items()))

    def count(self, rule: str) -> int:
        return sum(1 for alert in self.alerts if alert.rule == rule)

    def to_jsonl(self) -> str:
        """The persisted form: one JSON object per line."""
        return "".join(
            encode_json(alert.to_json()) + "\n"
            for alert in self.alerts
        )

    def __len__(self) -> int:
        return len(self.alerts)


#: Poll-path threshold: max silence before a source's heartbeat-gap
#: alert (ns).
HEARTBEAT_GAP_NS = 500_000_000


class AlertEngine:
    """Turns store facts and poll observations into logged alerts."""

    def __init__(self):
        self.log = AlertLog()
        #: Backpressure drops already accounted by previous polls.
        self._drops_alerted = 0

    # ------------------------------------------------------------------
    def observe(self, outcome: ApplyOutcome) -> None:
        """Apply-path rules: evaluate the facts of one applied row."""
        row = outcome.row
        if outcome.seq_gap:
            self.log.append(Alert(
                timestamp_ns=row[TIMESTAMP_NS],
                rule=RULE_SEQ_GAP,
                severity=AlertSeverity.WARNING,
                source=row[SOURCE],
                chain=row[CHAIN],
                segment=row[SEGMENT],
                activation=row[ACTIVATION],
                detail=(
                    f"{outcome.seq_gap} record(s) missing before seq "
                    f"{row[SEQ]}"
                ),
            ))
        if outcome.mk_violation:
            self.log.append(Alert(
                timestamp_ns=row[TIMESTAMP_NS],
                rule=RULE_MK_VIOLATION,
                severity=AlertSeverity.CRITICAL,
                source=row[SOURCE],
                chain=row[CHAIN],
                activation=row[ACTIVATION],
                detail=(
                    f"(m,k) window violated, margin {outcome.margin}"
                ),
            ))
        elif outcome.margin_exhausted_now:
            self.log.append(Alert(
                timestamp_ns=row[TIMESTAMP_NS],
                rule=RULE_MK_MARGIN,
                severity=AlertSeverity.WARNING,
                source=row[SOURCE],
                chain=row[CHAIN],
                activation=row[ACTIVATION],
                detail="(m,k) miss budget exhausted: one more miss violates",
            ))
        if outcome.latency_window_over_streak:
            self.log.append(Alert(
                timestamp_ns=row[TIMESTAMP_NS],
                rule=RULE_LATENCY_BUDGET,
                severity=AlertSeverity.WARNING,
                source=row[SOURCE],
                chain=row[CHAIN],
                segment=row[SEGMENT],
                activation=row[ACTIVATION],
                detail=(
                    f"p95 over budget for "
                    f"{outcome.latency_window_over_streak} consecutive "
                    f"windows"
                ),
            ))

    # ------------------------------------------------------------------
    def poll(
        self, now_ns: int, store: ChainStateStore, dropped: int = 0
    ) -> int:
        """Poll-path rules; returns how many alerts were raised.

        *dropped* is the service's lifetime backpressure drop count.
        """
        raised = 0
        for name in sorted(store.sources):
            state = store.sources[name]
            if state.last_seen_ns < 0 or state.gap_open:
                continue
            silence = now_ns - state.last_seen_ns
            if silence > HEARTBEAT_GAP_NS:
                state.gap_open = True
                self.log.append(Alert(
                    timestamp_ns=now_ns,
                    rule=RULE_HEARTBEAT,
                    severity=AlertSeverity.CRITICAL,
                    source=name,
                    detail=(
                        f"no records for {silence} ns "
                        f"(allowed {HEARTBEAT_GAP_NS})"
                    ),
                ))
                raised += 1
        new_drops = dropped - self._drops_alerted
        if new_drops > 0:
            self._drops_alerted = dropped
            self.log.append(Alert(
                timestamp_ns=now_ns,
                rule=RULE_QUEUE_DROPS,
                severity=AlertSeverity.CRITICAL,
                source="ingest",
                detail=(
                    f"{new_drops} record(s) dropped under backpressure "
                    f"({dropped} total)"
                ),
            ))
            raised += 1
        return raised
