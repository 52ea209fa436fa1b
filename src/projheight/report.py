"""Deterministic text, CSV, and JSON rendering of command results.

Cells carry only JSON-native values (int, str, bool, None); rationals are
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
from typing import Sequence

SCHEMA_VERSION = "1"

FORMATS = ("text", "csv", "json")


@dataclass(frozen=True)
class OutputRecord:
    """A command result: parameter echo, flat sorted rows, and summary.

    values holds one sequence of cells per column, in the order of columns;
    each has one cell per row.
    """

    command: str
    parameters: dict[str, object]
    columns: tuple[str, ...]
    values: tuple[Sequence[object], ...]
    summary: dict[str, object]
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self) -> None:
        lengths = list(map(len, self.values))
        if len(lengths) != len(self.columns) or len(set(lengths)) > 1:
            raise ValueError(f"{len(self.columns)} columns but value sequences of lengths {lengths}")

    @property
    def rows(self) -> tuple[tuple[object, ...], ...]:
        """Each row as a tuple of cells in the order of columns."""
        return tuple(zip(*self.values))


def cell(value: object) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


# Up to this many rows, deciding each column costs more than writing its cells one by one
_FEW_ROWS = 8


def _kinds(record: OutputRecord) -> list[type | None]:
    """Each column's type where its values are all exactly int (not bool) or all exactly str.

    %s is cell() on such a column."""
    kinds = ({*map(type, v)} for v in record.values)
    return [int if k == {int} else str if k == {str} else None for k in kinds]


def _columns(record: OutputRecord) -> tuple[list[type | None], list[Sequence]]:
    """The kinds, and each column's cells: the values where the kind is known, else their cell()."""
    kinds = _kinds(record)
    return kinds, [v if kind else list(map(cell, v)) for kind, v in zip(kinds, record.values)]


def render_csv(record: OutputRecord) -> str:
    # the csv module quotes a field that holds a comma, a quote or a line break,
    # and the one field of a row when it is empty; other rows are joined directly
    if record.values and len(record.values[0]) > _FEW_ROWS:
        kinds, columns = _columns(record)
        strings = [record.columns] + [v for kind, v in zip(kinds, columns) if kind is not int]
        blob = "".join(chain.from_iterable(strings))
        if not any(ch in blob for ch in ',"\r\n') and (len(columns) > 1 or all(chain(*strings))):
            lines = map(",".join(["%s"] * len(columns)).__mod__, zip(*columns))
            return "\n".join(chain((",".join(record.columns),), lines)) + "\n"
    rows = list(zip(*record.values))
    if not {*map(type, chain.from_iterable(rows))} <= {int, str, type(None)}:
        rows = [list(map(cell, row)) for row in rows]  # csv writes None as cell() does, not bools
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record.columns)
    writer.writerows(rows)
    return buf.getvalue()


def render_json(record: OutputRecord) -> str:
    """json.dumps(payload, indent=2, sort_keys=True), with the rows encoded column by column.

    Each row is a dict of its columns, so a later duplicate column wins. The
    rows are filled into one template of the sorted keys and spliced into the
    dump of the rest of the payload: int columns as they are, str columns by
    json's own encoder, and any other by json.dumps.
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
    if not any(record.values):  # no rows
        return text
    columns = [
        v if kind is int else list(map(encode_basestring_ascii if kind else json.dumps, v))
        for kind, v in zip(_kinds(record), record.values)
    ]
    last = {name: i for i, name in enumerate(record.columns)}
    keys = sorted(last)
    fields = ",".join("\n      %s: %%s" % json.dumps(key).replace("%", "%%") for key in keys)
    rows = map(("    {" + fields + "\n    }").__mod__, zip(*[columns[last[key]] for key in keys]))
    # top-level keys are the only lines indented by exactly two spaces
    return text.replace('\n  "rows": [],', '\n  "rows": [\n' + ",\n".join(rows) + '\n  ],', 1)


def render_text(record: OutputRecord) -> str:
    lines = [f"# {record.command}"]
    for key in sorted(record.parameters):
        lines.append(f"# {key} = {cell(record.parameters[key])}")
    if any(record.values):  # some rows
        lines.append("")
        (kinds, columns), names = _columns(record), record.columns
        # every column but the last is padded to its widest cell, and the widest
        # int is the least or the greatest
        pads = [
            "%%-%ds" % max(len(name), len(str(min(v))), len(str(max(v))))
            if kind is int
            else "%%-%ds" % max(len(name), max(map(len, v)))
            for name, kind, v in zip(names[:-1], kinds, columns)
        ]
        table = map("  ".join(pads + ["%s"]).__mod__, chain((names,), zip(*columns)))
        # a line ends in whitespace only where its last cell is empty or ends in whitespace
        ends = {names[-1], *(columns[-1] if kinds[-1] is not int else ())}
        if any(not s or s[-1].isspace() for s in ends):
            table = map(str.rstrip, table)
        lines += table
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
