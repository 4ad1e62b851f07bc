"""Unit tests for memory usage, summaries and report rendering."""

import numpy as np
import pytest

from repro.core.report import format_number, render_kv, render_table
from repro.core.summary import fraction_below
from repro.core.usage import memory_usage_mb


class TestMemoryUsage:
    def test_scaling(self):
        out = memory_usage_mb(np.array([0.5]), 32.0)
        assert out[0] == pytest.approx(0.5 * 32 * 1024)

    def test_double_capacity_doubles(self):
        norm = np.array([0.1, 0.2])
        np.testing.assert_allclose(
            memory_usage_mb(norm, 64.0), 2 * memory_usage_mb(norm, 32.0)
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            memory_usage_mb(np.array([1.5]), 32.0)
        with pytest.raises(ValueError):
            memory_usage_mb(np.array([0.5]), -1.0)


class TestSummary:
    def test_fraction_below(self):
        assert fraction_below(np.array([1.0, 2.0, 3.0, 4.0]), 3.0) == 0.5


class TestReport:
    def test_format_number(self):
        assert format_number(3) == "3"
        assert format_number(3.0) == "3"
        assert format_number(3.14159, precision=3) == "3.14"
        assert format_number("abc") == "abc"
        assert format_number(True) == "True"

    def test_render_table_alignment(self):
        out = render_table(
            ["name", "value"], [["x", 1], ["longer", 2.5]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert all("|" in line for line in lines[1:] if "-+-" not in line)

    def test_render_table_row_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_render_kv(self):
        out = render_kv({"alpha": 1, "b": 2.5}, title="vals")
        assert out.splitlines()[0] == "vals"
        assert "alpha" in out
