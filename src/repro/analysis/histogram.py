"""Streaming latency histograms: quantiles without raw samples.

A fleet service cannot keep every latency sample -- a day of one
vehicle's segment reports is already millions of integers.  The store
therefore folds samples into a log-bucketed histogram in the DDSketch
style: bucket ``i`` covers ``(gamma^(i-1), gamma^i]`` with
``gamma = (1 + alpha) / (1 - alpha)``, which guarantees every reported
quantile is within relative error ``alpha`` of the exact sample
quantile, at O(log(max/min) / alpha) memory independent of the sample
count.

The quantile convention is the *r-th smallest sample* with
``r = max(1, ceil(q * count))``, so the accuracy bound is sharp and
testable: the returned value v and the exact r-th smallest x satisfy
``|v - x| <= alpha * x`` (``tests/test_telemetry_histogram.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

#: Default relative accuracy of reported quantiles (1%).
DEFAULT_ALPHA = 0.01


class StreamingHistogram:
    """Mergeable log-bucket histogram with bounded-error quantiles."""

    __slots__ = (
        "alpha", "_gamma", "_log_gamma", "_buckets", "_zero",
        "count", "total", "min", "max",
    )

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        #: bucket index -> count; bucket i covers (gamma^(i-1), gamma^i].
        self._buckets: Dict[int, int] = {}
        #: Samples <= 0 (latencies can legitimately be zero on a
        #: same-tick completion; negatives are clamped here too rather
        #: than corrupting the log buckets).
        self._zero = 0
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def add(self, value: int) -> None:
        """Fold one sample into the sketch.

        ``ChainStateStore.apply_batch`` runs this arithmetic inline per
        segment row; a change here must be made there too (the
        store's differential tests against the per-record oracle, which
        calls this method, catch a mismatch).
        """
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0:
            self._zero += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        # Float round-off can land an exact power on the wrong side;
        # nudge back so the invariant gamma^(i-1) < value <= gamma^i holds.
        if self._gamma ** (index - 1) >= value:
            index -= 1
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile (r-th smallest, r = max(1, ceil(q*count))).

        None when empty.  Zero/negative samples report as 0.0.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q * self.count))
        if rank <= self._zero:
            return 0.0
        seen = self._zero
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                # Midpoint of (gamma^(i-1), gamma^i] in the relative
                # metric: within alpha of every sample in the bucket.
                return 2.0 * self._gamma ** index / (self._gamma + 1.0)
        # Unreachable when counters are consistent.
        raise AssertionError("histogram bucket counts inconsistent")

    @property
    def mean(self) -> Optional[float]:
        """Exact running mean (the sum is tracked exactly)."""
        if self.count == 0:
            return None
        return self.total / self.count

    def percentiles(self) -> Dict[str, Optional[float]]:
        """The monitoring triple p50/p95/p99 (+ min/max/mean/count)."""
        return {
            "count": self.count,
            "min": self.min,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max,
            "mean": self.mean,
        }

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold *other* into this sketch (alphas must match).

        Exact on sketch state (bucket counts add), hence commutative and
        associative, and the ``|est - exact| <= alpha * exact`` quantile
        bound survives any merge tree (``tests/test_telemetry_histogram.py``).
        """
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ValueError(
                f"cannot merge sketches with alpha {self.alpha} and {other.alpha}"
            )
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n
        self._zero += other._zero
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able exact state.

        Bucket keys serialize as strings (JSON objects cannot have int
        keys); order is normalized so equal sketches snapshot equal.
        """
        return {
            "alpha": self.alpha,
            "zero": self._zero,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(i): self._buckets[i] for i in sorted(self._buckets)},
        }

    @classmethod
    def restore(cls, data: dict) -> "StreamingHistogram":
        """Rebuild a sketch from :meth:`snapshot` output."""
        hist = cls(alpha=data["alpha"])
        hist._zero = data["zero"]
        hist.count = data["count"]
        hist.total = data["total"]
        hist.min = data["min"]
        hist.max = data["max"]
        hist._buckets = {int(i): n for i, n in data["buckets"].items()}
        return hist

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<StreamingHistogram n={self.count} alpha={self.alpha} "
            f"buckets={len(self._buckets)}>"
        )
