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
from itertools import chain
from json.encoder import encode_basestring_ascii

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


def _zip_rows(columns: list, n: int):
    """The n rows of columns, which are n empty rows when there are no columns."""
    return zip(*columns) if columns else [()] * n


def render_csv(record: OutputRecord) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record.columns)
    rows = record.rows
    # csv writes None as "" and any other value by str(), as cell() does, except bools
    if not set(map(type, chain.from_iterable(rows))) <= {int, str, type(None)}:
        rows = [[cell(value) for value in row] for row in rows]
    writer.writerows(rows)
    return buf.getvalue()


def _json_column(values: tuple) -> list[str]:
    """json.dumps of every value, with json's own encoders for int and str columns."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        return list(map(int.__repr__, values))
    if kinds <= {str}:
        return list(map(encode_basestring_ascii, values))
    return list(map(json.dumps, values))


def render_json(record: OutputRecord) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), with the rows encoded column by column.

    Each row is a dict of its columns, so a later duplicate column wins. The
    rows are filled into one template of the sorted keys and spliced into the
    dump of the rest of the payload.
    """
    payload = {
        "schema_version": record.schema_version,
        "command": record.command,
        "parameters": record.parameters,
        "columns": list(record.columns),
        "rows": [],
        "summary": record.summary,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if not record.rows:
        return text
    last = {name: i for i, name in enumerate(record.columns)}
    keys = sorted(last)
    columns = [_json_column(values) for values in zip(*record.rows)]
    fields = ",".join(
        "\n      %s: %%s" % json.dumps(key).replace("%", "%%") for key in keys
    )
    template = "    {" + fields + "\n    }" if keys else "    {}"
    cells = _zip_rows([columns[last[key]] for key in keys], len(record.rows))
    rows = ",\n".join([template % row for row in cells])
    # top-level keys are the only lines indented by exactly two spaces
    return text.replace('\n  "rows": [],', '\n  "rows": [\n' + rows + '\n  ],', 1)


def render_text(record: OutputRecord) -> str:
    lines = [f"# {record.command}"]
    for key in sorted(record.parameters):
        lines.append(f"# {key} = {cell(record.parameters[key])}")
    if record.rows:
        lines.append("")
        # cell() is str() on int and str columns
        columns = [
            [name, *map(str if set(map(type, values)) <= {int, str} else cell, values)]
            for name, values in zip(record.columns, zip(*record.rows))
        ]
        layout = "  ".join("%%-%ds" % max(map(len, texts)) for texts in columns)
        lines += [(layout % row).rstrip() for row in _zip_rows(columns, len(record.rows) + 1)]
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
