"""Plain-text table rendering for the benchmark and analysis harnesses.

Every table/figure reproduction prints its rows through :class:`TextTable`
so the benchmark output visually mirrors the structure of the paper's tables
and figure series without needing any plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class TextTable:
    """A minimal, dependency-free ASCII table builder.

    Example:
        >>> table = TextTable(["model", "speedup"], title="Figure 14")
        >>> table.add_row(["DLRM(1)", 9.3])
        >>> print(table.render())  # doctest: +SKIP
    """

    def __init__(self, columns: Sequence[str], title: str | None = None):
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = [str(column) for column in columns]
        self.title = title
        self._rows: list[list[str]] = []

    def add_row(self, values: Sequence[object]) -> None:
        """Append a row; values are stringified with sensible float formatting."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but table has {len(self.columns)} columns"
            )
        self._rows.append([_format_cell(value) for value in values])

    def add_rows(self, rows: Iterable[Sequence[object]]) -> None:
        """Append several rows at once."""
        for row in rows:
            self.add_row(row)

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    def render(self) -> str:
        """Render the table as an aligned ASCII string."""
        widths = [max(map(len, cells)) for cells in zip(self.columns, *self._rows)]

        def render_line(cells: Sequence[str]) -> str:
            return "| " + " | ".join(map(str.ljust, cells, widths)) + " |"

        separator = "+-" + "-+-".join("-" * width for width in widths) + "-+"
        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        lines.append(separator)
        lines.append(render_line(self.columns))
        lines.append(separator)
        lines.extend(map(render_line, self._rows))
        lines.append(separator)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience alias
        return self.render()


def _format_cell(value: object) -> str:
    if type(value) is str:  # most cells; a str subclass may override __str__
        return value
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)
