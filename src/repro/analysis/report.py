"""Report rendering: figure tables and the canonical plane-report JSON.

The reproduction regenerates each figure's *data*; :func:`format_table`
and :func:`format_series` print it as aligned rows so the bench output
reads like the paper's figures in tabular form (EXPERIMENTS.md records
the same rows).  :func:`format_report` is the one writer behind every
byte-stable JSON plane report.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence


def format_report(report: Dict[str, object]) -> str:
    """Canonical byte-stable JSON: sorted keys, two-space indent and a
    trailing newline, so two same-seed reports compare with ``cmp``."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 float_format: str = "{:.2f}") -> str:
    """Render rows as an aligned ASCII table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered_rows))
        if rendered_rows else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt_line(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines = [fmt_line(headers), fmt_line(["-" * w for w in widths])]
    lines.extend(fmt_line(row) for row in rendered_rows)
    return "\n".join(lines)


def format_series(name: str, points: Iterable, x_label: str = "x",
                  y_label: str = "y") -> str:
    """Render an (x, y) series with a title line."""
    body = format_table((x_label, y_label), points)
    return f"== {name} ==\n{body}"
