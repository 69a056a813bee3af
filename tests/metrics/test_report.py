"""Tests for text rendering helpers."""

from __future__ import annotations

import pytest

from repro.metrics.report import (
    comparison_table,
    render_table,
    series_block,
    sparkline,
    table_without_timing,
)
from repro.metrics.timeseries import TimeSeries


def make_series(values, name="s"):
    series = TimeSeries(name)
    for i, v in enumerate(values):
        series.append(float(i), v)
    return series


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_is_flat(self):
        line = sparkline([3.0, 3.0, 3.0])
        assert line == "▁▁▁"

    def test_rising_series_rises(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_long_series_compressed_to_width(self):
        line = sparkline(list(range(1000)), width=40)
        assert len(line) == 40

    def test_short_series_not_padded(self):
        assert len(sparkline([1.0, 2.0], width=40)) == 2


class TestRenderTable:
    def test_contains_headers_and_rows(self):
        text = render_table(["a", "b"], [[1, 2.5], ["x", 3.0]])
        lines = text.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert "2.5" in text and "x" in text

    def test_floats_formatted_compactly(self):
        text = render_table(["v"], [[0.123456789]])
        assert "0.1235" in text


class TestTableWithoutTiming:
    def test_timing_columns_dropped(self):
        fast = render_table(["solver", "welfare", "seconds"], [["lp", 1.5, 0.01]])
        slow = render_table(["solver", "welfare", "seconds"], [["lp", 1.5, 2.0]])
        assert fast != slow
        assert table_without_timing(fast) == table_without_timing(slow)
        assert table_without_timing(fast) == [["solver", "welfare"], ["lp", "1.5"]]

    def test_deterministic_cells_still_compared(self):
        a = render_table(["welfare", "solve_seconds"], [[1.5, 0.1]])
        b = render_table(["welfare", "solve_seconds"], [[1.6, 0.1]])
        assert table_without_timing(a) != table_without_timing(b)

    def test_non_table_rejected(self):
        with pytest.raises(ValueError, match="table row"):
            table_without_timing("one two\n---\nthree")


class TestBlocks:
    def test_series_block_summary(self):
        block = series_block(make_series([1.0, 2.0, 3.0]), "my series")
        assert "my series" in block
        assert "mean=2" in block

    def test_series_block_empty(self):
        assert "(empty)" in series_block(TimeSeries("x"))

    def test_comparison_table_lists_all_schedulers(self):
        table = comparison_table(
            {"auction": make_series([1, 2, 3]), "locality": make_series([0, 0, 1])},
            "welfare",
        )
        assert "auction" in table and "locality" in table
        assert "tail50%" in table
