"""Report tables and their deterministic rendering: CSV for machines,
aligned text for humans, JSON on request. No timestamps or environment
data ever enter a report, so identical inputs produce byte-identical
files.

Tables carry typed cells plus per-column format codes so reports render
deterministically: counts as integers, percentages to one decimal
(half-up, so 31.25 -> 31.3), medians as the midpoint of even-sized sets
(reported as x.5).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import DataError

Cell = str | int | float | None

# StudyTable column format codes (interpreted by format_cell):
# s text, d integer, p percent (1 decimal), m median (integer or x.5),
# f fixed 3 decimals, g general number.


def format_cell(value: Cell, fmt: str) -> str:
    if value is None:
        return ""
    if fmt == "s":
        return str(value)
    if fmt == "d":
        return str(int(value))
    if fmt == "p":
        return f"{value:.1f}"
    if fmt == "m":
        number = float(value)
        return str(int(number)) if number == int(number) else f"{number:.1f}"
    if fmt == "f":
        return f"{value:.3f}"
    if fmt == "g":
        if isinstance(value, int):
            return str(value)
        return repr(float(value))
    raise ValueError(f"unknown format code {fmt!r}")


@dataclass(frozen=True)
class StudyTable:
    """A rendered-ready table: one row per subject, typed cells, format
    codes per column, optional summary lines and footnotes."""

    title: str
    columns: tuple[str, ...]
    formats: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]
    summary: tuple[tuple[str, Cell], ...] = ()
    footnotes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.formats) != len(self.columns):
            raise DataError("one format code per column required")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise DataError(f"row {row!r} does not match the column count")

    def row_for(self, subject: str) -> tuple[Cell, ...]:
        for row in self.rows:
            if row[0] == subject:
                return row
        raise DataError(f"no row for subject {subject!r}")

    @cached_property
    def formatted_rows(self) -> list[list[str]]:
        """Each row's cells as their column's format code renders them;
        computed once, for every rendering of the table."""
        return [
            [format_cell(cell, fmt) for cell, fmt in zip(row, self.formats)]
            for row in self.rows
        ]


def render_csv(table: StudyTable) -> str:
    """Header plus data rows; summary lines and footnotes are omitted
    (see the text and JSON renderings)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(table.formatted_rows)
    return buffer.getvalue()


def render_text(table: StudyTable) -> str:
    rows = table.formatted_rows
    widths = [max(map(len, column)) for column in zip(table.columns, *rows)]
    lines = [table.title, "=" * len(table.title)]
    lines.append("  ".join(name.ljust(w) for name, w in zip(table.columns, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    if table.summary:  # numbers as the "g" code renders them: a float's str is its repr
        lines += ["", *(f"{label}: {value}" for label, value in table.summary)]
    if table.footnotes:
        lines += ["", *(f"note: {note}" for note in table.footnotes)]
    lines.append("")
    return "\n".join(lines)


def render_json(table: StudyTable) -> str:
    import json

    payload = {
        "title": table.title,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
        "summary": {label: value for label, value in table.summary},
        "footnotes": list(table.footnotes),
    }
    return json.dumps(payload, indent=2) + "\n"


def write_report(
    table: StudyTable, out_dir: Path, name: str, include_json: bool = False
) -> list[Path]:
    """Write <name>.csv and <name>.txt (and <name>.json when asked)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    suffixes = (".csv", ".txt", ".json") if include_json else (".csv", ".txt")
    paths = [out_dir / f"{name}{suffix}" for suffix in suffixes]
    for path, render in zip(paths, (render_csv, render_text, render_json)):
        path.write_text(render(table), encoding="utf-8")
    return paths
