"""The renderers against the plain per-cell renderers they replaced, byte for byte."""

import csv
import io
import json

import pytest

from projheight.cli import build_parser, cmd_table
from projheight.report import OutputRecord, cell, render, render_csv, render_json, render_text


def reference_csv(record):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record.columns)
    for row in record.rows:
        writer.writerow([cell(value) for value in row])
    return buf.getvalue()


def reference_json(record):
    payload = {
        "schema_version": record.schema_version,
        "command": record.command,
        "parameters": record.parameters,
        "columns": list(record.columns),
        "rows": [dict(zip(record.columns, row)) for row in record.rows],
        "summary": record.summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_text(record):
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


RENDERERS = [
    (render_text, reference_text),
    (render_csv, reference_csv),
    (render_json, reference_json),
]

AWKWARD = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f", "höhe ≤ p", "", "100%s", "a,b"]


def record(columns, rows, parameters=None, summary=None):
    return OutputRecord(
        command="synthetic",
        parameters={"p": 7, "text": 'q"uote'} if parameters is None else parameters,
        columns=tuple(columns),
        rows=tuple(tuple(row) for row in rows),
        summary={"rows": len(rows), "ok": True, "none": None} if summary is None else summary,
    )


SYNTHETIC = {
    "mixed": record(
        ("zeta", "alpha", "m", "b"),
        [
            (None, -5, AWKWARD[0], True),
            (3, 0, AWKWARD[1], False),
            (-12345678901234, 7, AWKWARD[2], None),
            (0, -1, AWKWARD[3], True),
        ],
    ),
    "awkward_strings": record(("s", "t"), [(a, b) for a in AWKWARD for b in AWKWARD[:3]]),
    "ints_and_bools": record(("n", "flag"), [(1, True), (True, 1), (0, False), (False, 0)]),
    "all_none": record(("x", "y"), [(None, None), (None, None)]),
    "single_column": record(("only",), [(1,), (-22,), (333,)]),
    "single_cell": record(("s",), [("x",)]),
    "single_empty_cells": record(("e",), [(None,), ("",), (False,)]),
    "single_none_column": record(("e",), [(None,), ("",), (None,)]),
    "no_rows": record(("a", "b"), []),
    "no_rows_no_summary": record(("a",), [], parameters={}, summary={}),
    "unsorted_columns": record(
        ("p", "a", "height", "argmin_k", "method"), [(5, 2, 3, 1, "formula")]
    ),
    "awkward_column_names": record(
        ('q"k', "b\\k", "%s", "é", "rows"), [(1, "x", None, True, 2)]
    ),
    "duplicate_columns": record(("a", "b", "a"), [(1, 2, 3), (4, 5, 6)]),
    "no_columns": record((), [(), ()]),
    "rows_in_payload": record(
        ("rows",),
        [('\n  "rows": [],',)],
        parameters={"rows": [], "nested": {"rows": []}},
        summary={"rows": '  "rows": [],'},
    ),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
@pytest.mark.parametrize("new,old", RENDERERS, ids=["text", "csv", "json"])
def test_synthetic_records(name, new, old):
    rec = SYNTHETIC[name]
    assert new(rec) == old(rec)


def test_full_table_record():
    args = build_parser().parse_args(["table", "--pmin", "3", "--pmax", "997"])
    rec = cmd_table(args)
    assert len(rec.rows) == 75624
    for fmt, (_, old) in zip(("text", "csv", "json"), RENDERERS):
        assert render(rec, fmt) == old(rec), fmt
