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
    """``merge`` is exact on sketch state (bucket counts add), so it is
    commutative and associative *on snapshots*, not merely on quantile
    estimates -- and the alpha accuracy bound survives any merge tree.
    """

    chunked = st.lists(samples, min_size=1, max_size=5)

    @staticmethod
    def sketch(values, alpha=0.01):
        hist = StreamingHistogram(alpha=alpha)
        for v in values:
            hist.add(v)
        return hist

    @staticmethod
    def merged(*sketches):
        """A fresh sketch folding *sketches* left to right."""
        out = StreamingHistogram.restore(sketches[0].snapshot())
        for other in sketches[1:]:
            out.merge(other)
        return out

    @given(values=samples, alpha=st.sampled_from([0.01, 0.05]))
    @settings(max_examples=100, deadline=None)
    def test_merged_is_commutative(self, values, alpha):
        cut = len(values) // 2
        a = self.sketch(values[:cut], alpha)
        b = self.sketch(values[cut:], alpha)
        assert self.merged(a, b).snapshot() == self.merged(b, a).snapshot()

    @given(values=samples, alpha=st.sampled_from([0.01, 0.05]))
    @settings(max_examples=100, deadline=None)
    def test_merged_is_associative(self, values, alpha):
        thirds = max(1, len(values) // 3)
        a, b, c = (
            self.sketch(part, alpha)
            for part in (values[:thirds], values[thirds:2 * thirds],
                         values[2 * thirds:])
        )
        left = self.merged(self.merged(a, b), c)
        right = self.merged(a, self.merged(b, c))
        assert left.snapshot() == right.snapshot()

    @given(values=samples)
    @settings(max_examples=50, deadline=None)
    def test_merge_leaves_its_argument_unchanged(self, values):
        cut = len(values) // 2
        a = self.sketch(values[:cut])
        b = self.sketch(values[cut:])
        before = b.snapshot()
        a.merge(b)
        assert b.snapshot() == before

    @given(chunks=chunked, q=quantiles, alpha=st.sampled_from([0.01, 0.05]))
    @settings(max_examples=200, deadline=None)
    def test_alpha_bound_survives_arbitrary_merge_trees(
        self, chunks, q, alpha
    ):
        # Build one sketch per chunk, fold them left-to-right; the
        # result must satisfy the same accuracy bound as a single
        # sketch over the concatenation.
        merged = self.merged(*(self.sketch(c, alpha) for c in chunks))
        flat = [v for chunk in chunks for v in chunk]
        assert merged.count == len(flat)
        assert merged.total == sum(flat)
        exact = exact_rank_value(flat, q)
        estimate = merged.quantile(q)
        assert abs(estimate - exact) <= alpha * exact + 1e-6

    @given(chunks=chunked, alpha=st.sampled_from([0.01, 0.05]))
    @settings(max_examples=100, deadline=None)
    def test_folded_merges_equal_single_sketch(self, chunks, alpha):
        merged = self.merged(*(self.sketch(c, alpha) for c in chunks))
        combined = self.sketch([v for c in chunks for v in c], alpha)
        assert merged.snapshot() == combined.snapshot()

    def test_merging_an_empty_sketch_changes_nothing(self):
        hist = self.sketch([3, 5, 8], alpha=0.05)
        before = hist.snapshot()
        hist.merge(StreamingHistogram(alpha=0.05))
        assert hist.snapshot() == before

    def test_merged_rejects_mismatched_alpha(self):
        # A fold over sketches of different alpha fails, and the refusal
        # leaves every operand as it was.
        a = self.sketch([3, 5, 8], alpha=0.01)
        b = self.sketch([13, 21], alpha=0.02)
        before = (a.snapshot(), b.snapshot())
        with pytest.raises(ValueError):
            self.merged(a, b)
        with pytest.raises(ValueError):
            a.merge(b)
        assert (a.snapshot(), b.snapshot()) == before


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
