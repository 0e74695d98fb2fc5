"""Text rendering of experiment results: tables, ASCII boxplots, CSV."""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import TukeyStats
from repro.sim.kernel import NS_PER_MS, NS_PER_US


def format_duration(value_ns: float) -> str:
    """Human-friendly rendering of a nanosecond quantity."""
    if abs(value_ns) >= NS_PER_MS:
        return f"{value_ns / NS_PER_MS:.2f}ms"
    if abs(value_ns) >= NS_PER_US:
        return f"{value_ns / NS_PER_US:.1f}us"
    return f"{value_ns:.0f}ns"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render an aligned text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def stats_table(named_stats: Dict[str, TukeyStats]) -> str:
    """One row of Tukey statistics per named series (durations in ns)."""
    headers = ["series", "n", "min", "q1", "median", "q3", "whisk_hi", "max", "outliers"]
    rows = []
    for name, stats in named_stats.items():
        rows.append([
            name,
            str(stats.n),
            format_duration(stats.minimum),
            format_duration(stats.q1),
            format_duration(stats.median),
            format_duration(stats.q3),
            format_duration(stats.whisker_hi),
            format_duration(stats.maximum),
            str(stats.outliers),
        ])
    return render_table(headers, rows)


def stats_csv(named_stats: Dict[str, TukeyStats]) -> str:
    """Machine-readable CSV of Tukey statistics (values in ns)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([
        "series", "n", "min", "whisker_lo", "q1", "median", "q3",
        "whisker_hi", "max", "mean", "outliers_lo", "outliers_hi",
    ])
    for name, stats in named_stats.items():
        writer.writerow([
            name, stats.n, stats.minimum, stats.whisker_lo, stats.q1,
            stats.median, stats.q3, stats.whisker_hi, stats.maximum,
            stats.mean, stats.outliers_lo, stats.outliers_hi,
        ])
    return out.getvalue()


def ascii_boxplot(
    named_stats: Dict[str, TukeyStats],
    width: int = 60,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """Render horizontal Tukey boxplots over a shared axis.

    ``|---[ = M = ]---|`` with ``M`` the median marker; axis labelled
    with the min/max of the plotted range.
    """
    if not named_stats:
        return "(no data)"
    if lo is None:
        lo = min(s.whisker_lo for s in named_stats.values())
    if hi is None:
        hi = max(s.whisker_hi for s in named_stats.values())
    if hi <= lo:
        hi = lo + 1

    def col(value: float) -> int:
        frac = (value - lo) / (hi - lo)
        return int(round(max(0.0, min(1.0, frac)) * (width - 1)))

    label_width = max(len(name) for name in named_stats)
    lines = []
    for name, stats in named_stats.items():
        cells = [" "] * width
        for i in range(col(stats.whisker_lo), col(stats.whisker_hi) + 1):
            cells[i] = "-"
        for i in range(col(stats.q1), col(stats.q3) + 1):
            cells[i] = "="
        cells[col(stats.whisker_lo)] = "|"
        cells[col(stats.whisker_hi)] = "|"
        cells[col(stats.q1)] = "["
        cells[col(stats.q3)] = "]"
        cells[col(stats.median)] = "M"
        lines.append(f"{name.ljust(label_width)} {''.join(cells)}")
    axis = (
        f"{' ' * label_width} {format_duration(lo)}"
        f"{' ' * max(1, width - len(format_duration(lo)) - len(format_duration(hi)))}"
        f"{format_duration(hi)}"
    )
    lines.append(axis)
    return "\n".join(lines)
