"""Tests for the plain-text reporting helpers."""

import numpy as np
import pytest

from repro.utils.tables import (
    format_mapping,
    format_number,
    format_series,
    format_table,
)


class TestFormatNumber:
    def test_int_grouping(self):
        assert format_number(1234567) == "1,234,567"

    def test_float_precision(self):
        assert format_number(3.14159, precision=2) == "3.14"

    def test_large_float_grouping(self):
        assert format_number(1234.5678, precision=1) == "1,234.6"

    def test_nan_renders_as_not_available(self):
        # NaN and None share the "not enough data" marker: gated
        # percentiles (see repro.grid.metrics) reach tables both ways.
        assert format_number(float("nan")) == "n/a"

    def test_string_passthrough(self):
        assert format_number("u_c_hihi.0") == "u_c_hihi.0"

    def test_bool_and_none(self):
        assert format_number(True) == "True"
        assert format_number(None) == "n/a"


class TestFormatTable:
    def test_contains_headers_and_values(self):
        text = format_table(["a", "b"], [[1, 2.5], [3, 4.5]], title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text
        assert "4.500" in text

    def test_alignment_constant_width_lines(self):
        text = format_table(["col", "value"], [["x", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestFormatSeries:
    def test_one_row_per_grid_point(self):
        grid = [0.0, 1.0, 2.0]
        series = {"LM": [10.0, 9.0, 8.0], "LMCTS": [10.0, 7.0, 5.0]}
        text = format_series(grid, series, title="figure")
        # title + header + separator + 3 data rows
        assert len(text.splitlines()) == 6
        assert "LMCTS" in text

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_series([0.0, 1.0], {"A": [1.0]})

    def test_accepts_numpy_inputs(self):
        text = format_series(np.arange(3.0), {"A": np.arange(3.0)})
        assert "time (s)" in text


class TestFormatMapping:
    def test_table1_style_rendering(self):
        text = format_mapping({"population height": 5, "lambda": 0.75}, title="Table 1")
        assert "Table 1" in text
        assert "population height" in text
        assert "0.750" in text
