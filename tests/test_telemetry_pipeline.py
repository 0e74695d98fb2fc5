"""Admission and the no-silent-drop accounting law.

Every record offered to the service must be applied or show up in its
drop counter.  ``TelemetryService.ingest_batch`` admits at most
``queue_capacity`` records per offer and counts the newest ones past it,
so offered == applied + dropped after any sequence of offers and polls
(proven by hypothesis below), and what the store holds is exactly the
accepted prefixes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.telemetry.alerts import RULE_QUEUE_DROPS
from repro.telemetry.service import ServiceConfig, TelemetryService


def _batch(seqs, source="v0"):
    """Heartbeat wire rows stamped and sequenced by *seqs*."""
    return [("heartbeat", source, "", "", -1, None, "", "", i, i) for i in seqs]


class TestIngestQueue:
    """``queue_capacity`` bounds what one offer admits."""

    def test_overflow_drops_newest_and_counts(self):
        service = TelemetryService(ServiceConfig(queue_capacity=3))
        assert service.ingest_batch(_batch(range(5))) == 3
        assert (service.offered, service.applied, service.dropped) == (5, 3, 2)
        assert service.accounting_ok()
        # The dropped records are the newest ones: the store saw 0..2.
        assert service.store.source_state("v0").last_seq == 2
        assert service.watermark_ns == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(queue_capacity=0)

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("offer"), st.integers(0, 12)),
                st.just(("poll",)),
            ),
            max_size=30,
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_accounting_invariant_under_any_interleaving(self, ops, capacity):
        service = TelemetryService(ServiceConfig(queue_capacity=capacity))
        # Fed only what *service* accepts; polled at the same points.
        reference = TelemetryService()
        seq = expected_applied = alerted_drops = 0
        for op in ops:
            if op[0] == "offer":
                n = op[1]
                accepted = min(n, capacity)
                assert service.ingest_batch(_batch(range(seq, seq + n))) \
                    == accepted
                reference.ingest_batch(_batch(range(seq, seq + accepted)))
                seq += n
                expected_applied += accepted
            else:
                before = service.alert_log.count(RULE_QUEUE_DROPS)
                service.poll()
                reference.poll()
                raised = service.alert_log.count(RULE_QUEUE_DROPS) - before
                assert raised == (1 if service.dropped > alerted_drops else 0)
                alerted_drops = service.dropped
            assert service.offered == service.applied + service.dropped
            assert service.applied == expected_applied
            assert service.accounting_ok()
        assert service.snapshot() == reference.snapshot()


class TestServiceAccounting:
    def test_offered_equals_applied_plus_dropped(self):
        service = TelemetryService(ServiceConfig(queue_capacity=8))
        service.ingest_batch(_batch(range(20)))
        service.ingest_batch(_batch(range(20, 25)))
        assert (service.applied, service.dropped) == (13, 12)
        assert service.accounting_ok()
        stats = service.stats()
        assert stats["offered"] == stats["applied"] + stats["dropped"] == 25
        assert "pending" not in stats and "queue" not in stats

    def test_accounting_survives_snapshot_restore(self):
        # store.applied is a lifetime counter that survives restore; the
        # service's law must balance against *this* service, not a
        # previous life.
        donor = TelemetryService()
        donor.ingest_batch(_batch(range(10)))
        fresh = TelemetryService()
        fresh.restore(donor.snapshot())
        assert fresh.store.applied == 10
        assert fresh.applied == 0
        assert fresh.accounting_ok()
        fresh.ingest_batch(_batch(range(5), source="v1"))
        assert fresh.applied == 5
        assert fresh.accounting_ok()
