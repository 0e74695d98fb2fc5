"""Unit + property tests for Tukey statistics and report rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    TukeyStats,
    ascii_boxplot,
    format_duration,
    render_table,
    stats_table,
    summarize,
)
from repro.sim import msec, usec


class TestSummarize:
    def test_known_values(self):
        stats = summarize([1, 2, 3, 4, 5])
        assert stats.median == 3
        assert stats.q1 == 2
        assert stats.q3 == 4
        assert stats.n == 5
        assert stats.outliers == 0
        assert stats.minimum == 1
        assert stats.maximum == 5

    def test_outlier_detection(self):
        data = [10] * 20 + [11] * 20 + [1000]
        stats = summarize(data)
        assert stats.outliers_hi == 1
        assert stats.whisker_hi <= 11

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_single_sample(self):
        stats = summarize([42])
        assert stats.median == 42
        assert stats.whisker_lo == 42
        assert stats.whisker_hi == 42

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_invariants(self, data):
        stats = summarize(data)
        assert stats.minimum <= stats.whisker_lo <= stats.q1 <= stats.median
        assert stats.median <= stats.q3 <= stats.whisker_hi <= stats.maximum
        assert 0 <= stats.outliers <= stats.n

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=4, max_size=100))
    @settings(max_examples=100)
    def test_matches_numpy_percentiles(self, data):
        stats = summarize(data)
        assert stats.median == pytest.approx(np.percentile(data, 50))
        assert stats.q1 == pytest.approx(np.percentile(data, 25))
        assert stats.q3 == pytest.approx(np.percentile(data, 75))


class TestFormatting:
    def test_format_duration_units(self):
        assert format_duration(500) == "500ns"
        assert format_duration(usec(12.3)) == "12.3us"
        assert format_duration(msec(1.5)) == "1.50ms"

    def test_render_table_alignment(self):
        table = render_table(["a", "long_header"], [["x", "1"], ["yyyy", "22"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_stats_table_contains_names(self):
        stats = summarize([usec(10), usec(20), usec(30)])
        table = stats_table({"overhead": stats})
        assert "overhead" in table
        assert "20.0us" in table


class TestCsvExport:
    def test_stats_csv_roundtrip(self):
        import csv as csvmod
        import io

        from repro.analysis import stats_csv

        stats = summarize([1, 2, 3, 4, 5])
        text = stats_csv({"demo": stats})
        rows = list(csvmod.reader(io.StringIO(text)))
        assert rows[0][0] == "series"
        assert rows[1][0] == "demo"
        header = {name: i for i, name in enumerate(rows[0])}
        assert float(rows[1][header["median"]]) == 3.0
        assert int(rows[1][header["n"]]) == 5


class TestAsciiBoxplot:
    def test_renders_all_series(self):
        named = {
            "objects": summarize([msec(40), msec(60), msec(90)]),
            "ground": summarize([msec(20), msec(30), msec(45)]),
        }
        plot = ascii_boxplot(named, width=40)
        assert "objects" in plot
        assert "ground" in plot
        assert "M" in plot

    def test_empty(self):
        assert ascii_boxplot({}) == "(no data)"

    def test_median_marker_between_whiskers(self):
        stats = summarize(list(range(100)))
        plot = ascii_boxplot({"s": stats}, width=50)
        line = plot.splitlines()[0]
        assert line.index("|") < line.index("M") < line.rindex("|")
