"""Tests for the metrics package: footprint and report rendering."""

import pytest

from repro.metrics import (
    ascii_bar_chart,
    footprint_from_curve,
    format_series,
    format_table,
    percent_reduction,
)


class TestFootprint:
    def test_finds_smallest_size(self):
        # Makespan halves with every doubling: sizes 1..8.
        makespans = {n: 800 / n for n in range(1, 9)}
        fp = footprint_from_curve(200, makespans)
        assert fp.cluster_size == 4
        assert fp.found
        assert fp.makespans[4] == 200
        assert fp.reduction_vs(8) == pytest.approx(0.5)

    def test_unreachable_target(self):
        fp = footprint_from_curve(10, {n: 1000.0 for n in range(1, 5)})
        assert fp.cluster_size is None
        assert not fp.found
        assert fp.reduction_vs(8) is None
        assert len(fp.makespans) == 4

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            footprint_from_curve(0, {1: 1.0})


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a   | bb" in lines[1]
        assert all("|" in line for line in lines[1:] if "-+-" not in line)

    def test_format_table_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_format_series(self):
        text = format_series("x", [1, 2], {"MC": [10.0, 20.0], "MCC": [5.0, 9.0]})
        assert "MC" in text and "MCC" in text
        assert "20" in text and "9" in text

    def test_format_series_length_mismatch_names_series(self):
        # A short series used to surface as a bare IndexError from deep
        # inside the row loop; it must be a ValueError naming the series.
        with pytest.raises(ValueError, match="MCC"):
            format_series("x", [1, 2, 3], {"MC": [1.0, 2.0, 3.0], "MCC": [1.0]})

    def test_format_series_rejects_long_series_too(self):
        with pytest.raises(ValueError, match="MC"):
            format_series("x", [1], {"MC": [1.0, 2.0]})

    def test_percent_reduction(self):
        assert percent_reduction(100, 73) == pytest.approx(27.0)
        with pytest.raises(ValueError):
            percent_reduction(0, 1)

    def test_ascii_bar_chart(self):
        chart = ascii_bar_chart(["a", "b"], [10.0, 5.0], width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_ascii_bar_chart_empty_and_mismatch(self):
        assert ascii_bar_chart([], []) == ""
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1.0, 2.0])
