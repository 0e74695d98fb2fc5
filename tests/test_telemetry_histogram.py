"""Accuracy bounds of the streaming latency histogram.

The sketch promises: the value it reports for quantile q is within
relative error alpha of the exact r-th smallest sample,
r = max(1, ceil(q * count)).  This is the property the fleet store
relies on to report p50/p95/p99 without retaining samples.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.histogram import StreamingHistogram

samples = st.lists(
    st.integers(min_value=1, max_value=10**9), min_size=1, max_size=300
)
quantiles = st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0])


def exact_rank_value(values, q):
    rank = max(1, math.ceil(q * len(values)))
    return sorted(values)[rank - 1]


class TestAccuracyBound:
    @given(values=samples, q=quantiles,
           alpha=st.sampled_from([0.01, 0.05]))
    @settings(max_examples=300, deadline=None)
    def test_quantile_within_alpha_of_exact(self, values, q, alpha):
        hist = StreamingHistogram(alpha=alpha)
        for v in values:
            hist.add(v)
        exact = exact_rank_value(values, q)
        estimate = hist.quantile(q)
        # Tiny absolute epsilon absorbs float round-off at bucket edges.
        assert abs(estimate - exact) <= alpha * exact + 1e-6, (
            f"q={q}: estimate {estimate} vs exact {exact}"
        )

    @given(values=samples, alpha=st.sampled_from([0.01, 0.05]))
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_single_sketch(self, values, alpha):
        cut = len(values) // 2
        left = StreamingHistogram(alpha=alpha)
        right = StreamingHistogram(alpha=alpha)
        combined = StreamingHistogram(alpha=alpha)
        for v in values[:cut]:
            left.add(v)
        for v in values[cut:]:
            right.add(v)
        for v in values:
            combined.add(v)
        left.merge(right)
        assert left.snapshot() == combined.snapshot()

    @given(values=samples)
    @settings(max_examples=100, deadline=None)
    def test_snapshot_restore_round_trip(self, values):
        hist = StreamingHistogram()
        for v in values:
            hist.add(v)
        # Through JSON: the snapshot must survive serialization exactly.
        restored = StreamingHistogram.restore(
            json.loads(json.dumps(hist.snapshot()))
        )
        assert restored.snapshot() == hist.snapshot()
        for q in (0.5, 0.95, 0.99):
            assert restored.quantile(q) == hist.quantile(q)


class TestMergeAlgebra:
    """First-class merge: the warehouse's cohort-aggregation contract.

    Merging is exact on sketch state (bucket counts add), so it is
    commutative and associative *on snapshots*, not merely on quantile
    estimates -- and the alpha accuracy bound survives any merge tree.
    """

    chunked = st.lists(samples, min_size=1, max_size=5)

    @given(values=samples, alpha=st.sampled_from([0.01, 0.05]))
    @settings(max_examples=100, deadline=None)
    def test_merged_is_commutative(self, values, alpha):
        cut = len(values) // 2
        a = StreamingHistogram(alpha=alpha)
        b = StreamingHistogram(alpha=alpha)
        for v in values[:cut]:
            a.add(v)
        for v in values[cut:]:
            b.add(v)
        assert a.merged(b).snapshot() == b.merged(a).snapshot()

    @given(values=samples, alpha=st.sampled_from([0.01, 0.05]))
    @settings(max_examples=100, deadline=None)
    def test_merged_is_associative(self, values, alpha):
        thirds = max(1, len(values) // 3)
        parts = [values[:thirds], values[thirds:2 * thirds],
                 values[2 * thirds:]]
        a, b, c = (StreamingHistogram(alpha=alpha) for _ in range(3))
        for hist, part in zip((a, b, c), parts):
            for v in part:
                hist.add(v)
        left = a.merged(b).merged(c)
        right = a.merged(b.merged(c))
        assert left.snapshot() == right.snapshot()

    @given(values=samples)
    @settings(max_examples=50, deadline=None)
    def test_merged_leaves_operands_unchanged(self, values):
        cut = len(values) // 2
        a = StreamingHistogram()
        b = StreamingHistogram()
        for v in values[:cut]:
            a.add(v)
        for v in values[cut:]:
            b.add(v)
        before_a, before_b = a.snapshot(), b.snapshot()
        a.merged(b)
        assert a.snapshot() == before_a
        assert b.snapshot() == before_b

    @given(chunks=chunked, q=quantiles, alpha=st.sampled_from([0.01, 0.05]))
    @settings(max_examples=200, deadline=None)
    def test_alpha_bound_survives_arbitrary_merge_trees(
        self, chunks, q, alpha
    ):
        # Build one sketch per chunk, fold them left-to-right; the
        # result must satisfy the same accuracy bound as a single
        # sketch over the concatenation.
        sketches = []
        for chunk in chunks:
            hist = StreamingHistogram(alpha=alpha)
            for v in chunk:
                hist.add(v)
            sketches.append(hist)
        merged = StreamingHistogram.merge_many(sketches, alpha=alpha)
        flat = [v for chunk in chunks for v in chunk]
        assert merged.count == len(flat)
        assert merged.total == sum(flat)
        if not flat:
            assert merged.quantile(q) is None
            return
        exact = exact_rank_value(flat, q)
        estimate = merged.quantile(q)
        assert abs(estimate - exact) <= alpha * exact + 1e-6

    @given(chunks=chunked, alpha=st.sampled_from([0.01, 0.05]))
    @settings(max_examples=100, deadline=None)
    def test_merge_many_equals_single_sketch(self, chunks, alpha):
        sketches = []
        combined = StreamingHistogram(alpha=alpha)
        for chunk in chunks:
            hist = StreamingHistogram(alpha=alpha)
            for v in chunk:
                hist.add(v)
                combined.add(v)
            sketches.append(hist)
        merged = StreamingHistogram.merge_many(sketches, alpha=alpha)
        assert merged.snapshot() == combined.snapshot()

    def test_merge_many_of_nothing_is_empty(self):
        merged = StreamingHistogram.merge_many([], alpha=0.05)
        assert merged.count == 0
        assert merged.alpha == 0.05
        assert merged.quantile(0.5) is None

    def test_merged_rejects_mismatched_alpha(self):
        with pytest.raises(ValueError):
            StreamingHistogram(alpha=0.01).merged(
                StreamingHistogram(alpha=0.02)
            )


class TestEdgeCases:
    def test_empty_histogram_reports_none(self):
        hist = StreamingHistogram()
        assert hist.quantile(0.5) is None
        assert hist.mean is None
        assert len(hist) == 0

    def test_zero_and_negative_samples_report_as_zero(self):
        hist = StreamingHistogram()
        for v in (0, -5, 0):
            hist.add(v)
        assert hist.quantile(0.5) == 0.0
        assert hist.count == 3
        assert hist.min == -5

    def test_exact_counters(self):
        hist = StreamingHistogram()
        for v in (10, 20, 30):
            hist.add(v)
        assert hist.count == 3
        assert hist.total == 60
        assert hist.mean == 20
        assert hist.min == 10 and hist.max == 30

    def test_merge_rejects_mismatched_alpha(self):
        with pytest.raises(ValueError):
            StreamingHistogram(alpha=0.01).merge(StreamingHistogram(alpha=0.02))

    def test_invalid_alpha_rejected(self):
        for alpha in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                StreamingHistogram(alpha=alpha)

    def test_invalid_quantile_rejected(self):
        hist = StreamingHistogram()
        hist.add(1)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
