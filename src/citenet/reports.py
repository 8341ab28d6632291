"""Deterministic report rendering: CSV for machines, aligned text for
humans, JSON on request. No timestamps or environment data ever enter a
report, so identical inputs produce byte-identical files."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .study import Cell, StudyTable


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


def _formatted_rows(table: StudyTable) -> list[list[str]]:
    return [
        [format_cell(cell, fmt) for cell, fmt in zip(row, table.formats)]
        for row in table.rows
    ]


def render_csv(table: StudyTable, rows: list[list[str]] | None = None) -> str:
    """Header plus data rows; summary lines and footnotes are omitted
    (see the text and JSON renderings). ``rows``, when given, is
    ``_formatted_rows(table)``, as for :func:`render_text`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(_formatted_rows(table) if rows is None else rows)
    return buffer.getvalue()


def render_text(table: StudyTable, rows: list[list[str]] | None = None) -> str:
    if rows is None:
        rows = _formatted_rows(table)
    widths = [
        max(len(name), *(len(row[i]) for row in rows)) if rows else len(name)
        for i, name in enumerate(table.columns)
    ]
    lines = [table.title, "=" * len(table.title)]
    lines.append("  ".join(name.ljust(w) for name, w in zip(table.columns, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    if table.summary:
        lines.append("")
        for label, value in table.summary:
            rendered = format_cell(value, "g") if isinstance(value, (int, float)) else str(value)
            lines.append(f"{label}: {rendered}")
    if table.footnotes:
        lines.append("")
        for note in table.footnotes:
            lines.append(f"note: {note}")
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
    rows = _formatted_rows(table)  # formatted once for both renderings
    texts = [(".csv", render_csv(table, rows)), (".txt", render_text(table, rows))]
    if include_json:
        texts.append((".json", render_json(table)))
    written = []
    for suffix, text in texts:
        path = out_dir / f"{name}{suffix}"
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written
