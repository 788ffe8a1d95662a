"""Plain-text rendering of experiment results.

The benchmark harness prints its tables through these helpers so that the
rows recorded in EXPERIMENTS.md can be regenerated verbatim with
``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence


def _format_value(value: Any, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]], columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None, precision: int = 3) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return (title + "\n(no rows)") if title else "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    rendered = [[_format_value(row.get(column, ""), precision) for column in columns]
                for row in rows]
    widths = [max(len(column), *(len(line[index]) for line in rendered))
              for index, column in enumerate(columns)]
    header = " | ".join(column.ljust(widths[index]) for index, column in enumerate(columns))
    separator = "-+-".join("-" * width for width in widths)
    body = [" | ".join(line[index].ljust(widths[index]) for index in range(len(columns)))
            for line in rendered]
    lines = ([title, "=" * len(title)] if title else []) + [header, separator] + body
    return "\n".join(lines)


def format_series(x_label: str, y_label: str, points: Sequence[tuple],
                  title: Optional[str] = None, precision: int = 3) -> str:
    """Render an (x, y) series as a two-column table (a 'figure' in text form)."""
    rows = [{x_label: x, y_label: y} for x, y in points]
    return format_table(rows, columns=[x_label, y_label], title=title, precision=precision)
