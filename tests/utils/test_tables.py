"""Tests for the ASCII table renderer."""

import numpy as np
import pytest

from repro.utils.tables import TextTable


class TestTextTable:
    def test_requires_columns(self):
        with pytest.raises(ValueError):
            TextTable([])

    def test_row_length_validation(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_render_contains_title_and_cells(self):
        table = TextTable(["model", "speedup"], title="Figure 14")
        table.add_row(["DLRM(1)", 9.3])
        rendered = table.render()
        assert "Figure 14" in rendered
        assert "DLRM(1)" in rendered
        assert "9.30" in rendered

    def test_add_rows_bulk(self):
        table = TextTable(["x"])
        table.add_rows([[1], [2], [3]])
        assert table.num_rows == 3

    def test_bool_formatting(self):
        table = TextTable(["feature", "supported"])
        table.add_row(["gathers", True])
        table.add_row(["small vectors", False])
        rendered = table.render()
        assert "yes" in rendered and "no" in rendered

    def test_large_and_small_float_formatting(self):
        table = TextTable(["value"])
        table.add_row([12345.678])
        table.add_row([0.00123])
        rendered = table.render()
        assert "12,345.7" in rendered
        assert "0.0012" in rendered

    def test_columns_align(self):
        table = TextTable(["a", "b"])
        table.add_row(["looooooooong", 1])
        table.add_row(["x", 22])
        lines = table.render().splitlines()
        header_width = len(lines[1])
        assert all(len(line) == header_width for line in lines[1:])

    def test_string_cells_render_verbatim(self):
        class Label(str):
            def __str__(self):
                return "label"

        table = TextTable(["a", "b"])
        table.add_row(["DLRM(1)", Label("raw")])
        # A plain string is its own cell; a subclass still goes through str().
        assert "| DLRM(1) | label |" in table.render()


@pytest.mark.parametrize(
    ("value", "cell"),
    [
        ("DLRM(1)", "DLRM(1)"),
        (True, "yes"),
        (False, "no"),
        (7, "7"),
        (None, "None"),
        (0.0, "0"),
        (-0.0, "0"),
        (12345.678, "12,345.7"),
        (-1500.0, "-1,500.0"),
        (9.3, "9.30"),
        (1.0, "1.00"),
        (np.float64(2.5), "2.50"),
        (0.00123, "0.0012"),
        (-0.5, "-0.5000"),
    ],
)
def test_cell_formatting(value, cell):
    """Each kind of value renders to one fixed cell text."""
    table = TextTable(["v"])
    table.add_row([value])
    row = table.render().splitlines()[3]
    assert row == f"| {cell} |"
