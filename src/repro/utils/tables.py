"""Plain-text table rendering (shared, dependency-free).

The paper's evaluation consists of tables and convergence figures; the
reproduction renders both as monospaced text so that every benchmark target
and report can simply print the same rows / series the paper reports,
without a plotting dependency.  The formatting helpers are deliberately
dumb: they take headers plus rows of values and return a string.

This lives in the utils layer so that both the experiment harness and the
trace subsystem's reports can render tables without importing each other.
"""


from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["format_number", "format_table", "format_series", "format_mapping"]


def format_number(value: object, *, precision: int = 3) -> str:
    """Render a cell: floats get thousands grouping, everything else ``str``.

    ``None`` and ``NaN`` both render as ``n/a`` — the shared "not enough
    data" marker (gated percentiles, Welch tests without repetitions).
    """
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return f"{int(value):,}"
    if isinstance(value, (float, np.floating)):
        number = float(value)
        if number != number:  # NaN
            return "n/a"
        if abs(number) >= 1000:
            return f"{number:,.{precision}f}"
        return f"{number:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Render an aligned monospaced table.

    Parameters
    ----------
    headers:
        Column titles.
    rows:
        Iterable of row value sequences (must match the header length).
    title:
        Optional title printed above the table.
    precision:
        Decimal places for floating-point cells.
    """
    rendered_rows = []
    for row in rows:
        cells = [format_number(value, precision=precision) for value in row]
        if len(cells) != len(headers):
            raise ValueError(
                f"row has {len(cells)} cells but the table has {len(headers)} columns"
            )
        rendered_rows.append(cells)

    widths = [len(str(h)) for h in headers]
    for cells in rendered_rows:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(str(cell).rjust(widths[i]) for i, cell in enumerate(cells))

    parts = []
    if title:
        parts.append(title)
    parts.append(line([str(h) for h in headers]))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(cells) for cells in rendered_rows)
    return "\n".join(parts)


def format_series(
    grid: Sequence[float] | np.ndarray,
    series: Mapping[str, Sequence[float] | np.ndarray],
    *,
    title: str | None = None,
    x_label: str = "time (s)",
    precision: int = 1,
) -> str:
    """Render figure-style data: one column per variant, one row per grid point.

    This is the textual equivalent of the makespan-reduction plots of
    Figures 2-5: the first column is the x axis (elapsed time), every further
    column is the best makespan of one configuration at that time.
    """
    headers = [x_label] + list(series)
    rows = []
    grid_arr = np.asarray(grid, dtype=float)
    columns = {name: np.asarray(values, dtype=float) for name, values in series.items()}
    for name, values in columns.items():
        if values.shape != grid_arr.shape:
            raise ValueError(
                f"series {name!r} has {values.shape[0]} points, grid has {grid_arr.shape[0]}"
            )
    for i, x in enumerate(grid_arr):
        rows.append([float(x)] + [float(columns[name][i]) for name in series])
    return format_table(headers, rows, title=title, precision=precision)


def format_mapping(values: Mapping[str, object], *, title: str | None = None) -> str:
    """Render a key → value mapping as a two-column table (Table 1 style)."""
    return format_table(
        ["parameter", "value"],
        [(key, value) for key, value in values.items()],
        title=title,
    )
