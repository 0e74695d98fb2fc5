"""Unit tests for chain-level outcome supervision and the exception
dataclasses/handlers."""

from repro.core import (
    ChainRuntime,
    EventChain,
    MKConstraint,
    Outcome,
    PropagateAlways,
    RecoverAlways,
    RecoverUpTo,
    TemporalException,
)
from repro.core.exceptions import (
    ExceptionContext,
    handle_local_exception,
    handle_remote_exception,
)
from repro.core.segments import local_segment, remote_segment
from repro.sim import msec


def make_chain(m=1, k=5):
    s0 = remote_segment("s0", "a", "ecu1", "ecu2", d_mon=msec(5))
    s1 = local_segment("s1", "ecu2", "a", "b", d_mon=msec(10))
    s1.start = s0.end
    return EventChain(
        name="c", segments=[s0, s1], period=msec(100), budget_e2e=msec(50),
        mk=MKConstraint(m, k),
    )


def exc(chain, seg_idx=0, activation=0):
    segment = chain.segments[seg_idx]
    return TemporalException(
        segment=segment, activation=activation,
        deadline=msec(10), raised_at=msec(10) + 50_000,
    )


class TestChainRuntime:
    def test_ok_activations_not_violated(self):
        runtime = ChainRuntime(make_chain())
        for n in range(5):
            runtime.report("s0", n, Outcome.OK, latency=msec(1))
            runtime.report("s1", n, Outcome.OK, latency=msec(2))
        report = runtime.finalize()
        assert report.total == 5
        assert report.miss_count == 0
        assert report.mk_satisfied
        assert report.miss_ratio == 0.0

    def test_any_miss_violates_activation(self):
        runtime = ChainRuntime(make_chain())
        runtime.report("s0", 0, Outcome.OK)
        runtime.report("s1", 0, Outcome.MISS, latency=msec(10))
        report = runtime.finalize()
        assert report.activations[0].violated
        assert report.misses == [True]

    def test_recovered_not_a_violation(self):
        runtime = ChainRuntime(make_chain())
        runtime.report("s0", 0, Outcome.RECOVERED, latency=msec(5))
        runtime.report("s1", 0, Outcome.OK)
        report = runtime.finalize()
        assert not report.activations[0].violated
        assert report.recovered_count == 1

    def test_skipped_counted_but_not_double_violated(self):
        runtime = ChainRuntime(make_chain())
        runtime.report("s0", 0, Outcome.MISS)
        runtime.report("s1", 0, Outcome.SKIPPED)
        report = runtime.finalize()
        assert report.activations[0].violated
        assert sum(report.misses) == 1
        assert report.skipped_count == 1

    def test_unreported_activations_count_as_ok(self):
        runtime = ChainRuntime(make_chain())
        runtime.report("s0", 3, Outcome.MISS)
        report = runtime.finalize()
        # Activations 0-2 have no records: not violated.
        assert report.misses == [False, False, False, True]

    def test_mk_verdict_over_window(self):
        runtime = ChainRuntime(make_chain(m=1, k=3))
        for n in range(6):
            outcome = Outcome.MISS if n in (2, 3) else Outcome.OK
            runtime.report("s0", n, outcome)
        report = runtime.finalize()
        assert not report.mk_satisfied
        assert report.max_window_misses == 2

    def test_online_window_fires_violation_callback(self):
        fired = []
        runtime = ChainRuntime(
            make_chain(m=0, k=2),
            on_violation=lambda n, misses: fired.append((n, misses)),
        )
        runtime.report("s0", 0, Outcome.OK)
        runtime.report("s0", 1, Outcome.MISS)
        runtime.advance_window(through_activation=1)
        assert fired == [(1, 1)]

    def test_advance_window_is_incremental(self):
        runtime = ChainRuntime(make_chain(m=0, k=2))
        runtime.report("s0", 0, Outcome.MISS)
        runtime.advance_window(0)
        runtime.advance_window(0)  # idempotent
        assert runtime.window.total == 1

    def test_segment_latency_extraction(self):
        runtime = ChainRuntime(make_chain())
        runtime.report("s1", 0, Outcome.OK, latency=msec(2))
        runtime.report("s1", 1, Outcome.MISS, latency=msec(10))
        runtime.report("s1", 2, Outcome.SKIPPED)  # no latency
        assert [runtime.records[n]["s1"].latency for n in range(3)] == [
            msec(2), msec(10), None
        ]
        assert runtime.segment_outcomes("s1") == [
            Outcome.OK, Outcome.MISS, Outcome.SKIPPED
        ]

    def test_exception_archive(self):
        chain = make_chain()
        runtime = ChainRuntime(chain)
        exception = exc(chain)
        runtime.report_exception(exception)
        assert runtime.exceptions == [exception]

    def test_finalize_through_activation(self):
        runtime = ChainRuntime(make_chain())
        runtime.report("s0", 0, Outcome.OK)
        runtime.report("s0", 9, Outcome.MISS)
        report = runtime.finalize(through_activation=4)
        assert report.total == 5
        assert sum(report.misses) == 0


class TestTemporalException:
    def test_detection_latency(self):
        chain = make_chain()
        exception = exc(chain)
        assert exception.detection_latency == 50_000


class TestHandlers:
    def ctx(self, misses=1, start_data=None, last_good=None):
        return ExceptionContext(
            exception=exc(make_chain()),
            misses=misses,
            start_data=start_data,
            last_good_data=last_good,
        )

    def test_propagate_always(self):
        assert PropagateAlways().user_exception(self.ctx()) is None

    def test_recover_always(self):
        handler = RecoverAlways(lambda ctx: f"sub-{ctx.misses}")
        assert handler.user_exception(self.ctx(misses=3)) == "sub-3"

    def test_recover_up_to_threshold(self):
        handler = RecoverUpTo(2, lambda ctx: "data")
        assert handler.user_exception(self.ctx(misses=2)) == "data"
        assert handler.user_exception(self.ctx(misses=3)) is None

    def test_handle_local_exception_recovery_publishes(self):
        published = []
        recovered = handle_local_exception(
            RecoverAlways(lambda ctx: "fixed"), self.ctx(), published.append
        )
        assert recovered
        assert published == ["fixed"]

    def test_handle_local_exception_propagation_publishes_nothing(self):
        published = []
        recovered = handle_local_exception(
            PropagateAlways(), self.ctx(), published.append
        )
        assert not recovered
        assert published == []

    def test_handle_remote_exception_recovery_issues_receive(self):
        issued, propagated = [], []
        recovered = handle_remote_exception(
            RecoverAlways(lambda ctx: "fixed"),
            self.ctx(),
            issue_receive=issued.append,
            propagate_exception=lambda: propagated.append(True),
        )
        assert recovered
        assert issued == ["fixed"]
        assert propagated == []

    def test_handle_remote_exception_propagation(self):
        issued, propagated = [], []
        recovered = handle_remote_exception(
            PropagateAlways(),
            self.ctx(),
            issue_receive=issued.append,
            propagate_exception=lambda: propagated.append(True),
        )
        assert not recovered
        assert issued == []
        assert propagated == [True]
