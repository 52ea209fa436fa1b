"""Deterministic text, CSV, and JSON rendering of command results.

Rows carry only JSON-native values (int, str, bool, None); rationals are
stringified by the command builders. Output contains no timestamps, so equal
inputs render to identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

SCHEMA_VERSION = "1"

FORMATS = ("text", "csv", "json")


@dataclass(frozen=True)
class OutputRecord:
    """A command result: parameter echo, flat sorted rows, and summary.

    Each row is a tuple of cells in the order of columns.
    """

    command: str
    parameters: dict[str, object]
    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]
    summary: dict[str, object]
    schema_version: str = SCHEMA_VERSION


def cell(value: object) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def render_csv(record: OutputRecord) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record.columns)
    for row in record.rows:
        writer.writerow([cell(value) for value in row])
    return buf.getvalue()


def render_json(record: OutputRecord) -> str:
    payload = {
        "schema_version": record.schema_version,
        "command": record.command,
        "parameters": record.parameters,
        "columns": list(record.columns),
        "rows": [dict(zip(record.columns, row)) for row in record.rows],
        "summary": record.summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_text(record: OutputRecord) -> str:
    lines = [f"# {record.command}"]
    for key in sorted(record.parameters):
        lines.append(f"# {key} = {cell(record.parameters[key])}")
    if record.rows:
        lines.append("")
        table = [list(record.columns)]
        for row in record.rows:
            table.append([cell(value) for value in row])
        widths = [max(len(r[i]) for r in table) for i in range(len(record.columns))]
        for r in table:
            lines.append("  ".join(text.ljust(w) for text, w in zip(r, widths)).rstrip())
    if record.summary:
        lines.append("")
        for key in sorted(record.summary):
            lines.append(f"{key}: {cell(record.summary[key])}")
    return "\n".join(lines) + "\n"


def render(record: OutputRecord, fmt: str) -> str:
    if fmt == "text":
        return render_text(record)
    if fmt == "csv":
        return render_csv(record)
    if fmt == "json":
        return render_json(record)
    raise ValueError(f"unknown format {fmt!r}")
