"""Tukey boxplot statistics (the paper's reporting format)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass(frozen=True)
class TukeyStats:
    """The five-number summary plus whiskers and outliers.

    Whiskers extend to the most extreme data point within 1.5 IQR of
    the quartiles (classic Tukey convention, as in the paper's plots).
    """

    n: int
    minimum: float
    whisker_lo: float
    q1: float
    median: float
    q3: float
    whisker_hi: float
    maximum: float
    mean: float
    outliers_lo: int
    outliers_hi: int

    @property
    def outliers(self) -> int:
        """Total points outside the whiskers."""
        return self.outliers_lo + self.outliers_hi


def summarize(samples: Sequence[float]) -> TukeyStats:
    """Compute Tukey boxplot statistics over *samples*."""
    if len(samples) == 0:
        raise ValueError("cannot summarize an empty sample set")
    arr = np.asarray(samples, dtype=np.float64)
    q1, median, q3 = np.percentile(arr, [25, 50, 75])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    # Whiskers clamp to the quartiles when no data lies between the
    # quartile and its fence (matplotlib's convention).
    whisker_lo = min(float(inside.min()), float(q1)) if inside.size else float(q1)
    whisker_hi = max(float(inside.max()), float(q3)) if inside.size else float(q3)
    return TukeyStats(
        n=int(arr.size),
        minimum=float(arr.min()),
        whisker_lo=whisker_lo,
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        whisker_hi=whisker_hi,
        maximum=float(arr.max()),
        mean=float(arr.mean()),
        outliers_lo=int((arr < lo_fence).sum()),
        outliers_hi=int((arr > hi_fence).sum()),
    )
