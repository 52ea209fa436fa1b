"""The renderers against the plain per-cell renderers they replaced, byte for byte."""

import csv
import io
import json
from dataclasses import replace

import pytest

from projheight.cli import build_parser, cmd_table
from projheight.report import (
    FORMATS,
    OutputRecord,
    cell,
    render,
    render_csv,
    render_json,
    render_text,
)


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
    """A record of the given rows, handed to OutputRecord one list per column."""
    return OutputRecord(
        command="synthetic",
        parameters={"p": 7, "text": 'q"uote'} if parameters is None else parameters,
        columns=tuple(columns),
        values=tuple([row[i] for row in rows] for i in range(len(columns))),
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
    "no_columns": record((), []),
    "height_shaped": record(
        (
            "p", "point", "d_star", "height", "argmin_k",
            "method", "rule", "bound_average", "bound_direct", "bound_complement",
        ),
        [(11, "1:7:8", 3, 10, 2, None, None, 16, 12, None)],
    ),
    "unsorted_columns": record(
        ("p", "a", "height", "argmin_k", "method"), [(5, 2, 3, 1, "formula")]
    ),
    "awkward_column_names": record(
        ('q"k', "b\\k", "%s", "é", "rows"), [(1, "x", None, True, 2)]
    ),
    "duplicate_columns": record(("a", "b", "a"), [(1, 2, 3), (4, 5, 6)]),
    "last_column_empty_cell": record(("n", "last"), [(1, "x"), (22, ""), (333, "yy")]),
    "last_column_trailing_space": record(
        ("n", "last"), [(1, "x "), (22, "y\t"), (333, "z"), (4, "nbsp\xa0")]
    ),
    "last_column_name_space": record(("n", "last "), [(1, "x"), (2, "y")]),
    "int_widest_at_minimum": record(("n", "m"), [(-12345, 1), (7, -2), (0, 3)]),
    "bool_and_int_column": record(("n", "b"), [(1, 5), (2, True), (3, 0), (4, False)]),
    "int_and_str_column": record(("v", "n"), [(1, 5), ("bb", 6), (-3, 7), ("", 8)]),
    "one_cell_needs_quotes": record(
        ("s", "n"), [("plain", 1), ("a,b", 2), ("c", 3), ("d", 4)]
    ),
    "one_column_empty_str": record(("e",), [("x",), ("",), ("yy",)]),
    "one_column_empty_name": record(("",), [(1,), (2,)]),
    "non_ascii": record(
        ("name", "n"), [("höhe", 1), ("≤ p", 2), ("日本", 3), ("\u2028\U0001f600", 4)]
    ),
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


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
@pytest.mark.parametrize("new,old", RENDERERS, ids=["text", "csv", "json"])
def test_synthetic_records_past_few_rows(name, new, old):
    # each renderer takes one path at any row count; nine copies of each row check a taller record
    rec = SYNTHETIC[name]
    tall = replace(rec, values=tuple(list(v) * 9 for v in rec.values))
    assert new(tall) == old(tall)


def assert_same_text(new, old, label):
    """new == old, failing fast: pytest's own diff of two multi-MB strings runs for minutes."""
    if new == old:
        return
    at = next((i for i, (a, b) in enumerate(zip(new, old)) if a != b), min(len(new), len(old)))
    near = slice(max(at - 150, 0), at + 150)
    pytest.fail(
        f"{label}: lengths {len(new)} and {len(old)}, first difference at offset {at}:\n"
        f"{new[near]!r}\n{old[near]!r}"
    )


def test_full_table_record():
    args = build_parser().parse_args(["table", "--pmin", "3", "--pmax", "997"])
    rec = cmd_table(args)
    assert len(rec.rows) == 75624
    for fmt, (_, old) in zip(("text", "csv", "json"), RENDERERS):
        assert_same_text(render(rec, fmt), old(rec), fmt)


def test_record_needs_one_sequence_per_column():
    with pytest.raises(ValueError):
        OutputRecord("synthetic", {}, ("a", "b"), ([1],), {})
    with pytest.raises(ValueError):
        OutputRecord("synthetic", {}, ("a",), ([1], [2]), {})


def test_record_columns_have_one_length():
    with pytest.raises(ValueError):
        OutputRecord("synthetic", {}, ("a", "b"), ([1, 2], [3]), {})
    rec = OutputRecord("synthetic", {}, ("a", "b"), ([1, 2], [3, 4]), {})
    assert rec.rows == ((1, 3), (2, 4))


def test_unknown_format_refused():
    rec = SYNTHETIC["single_cell"]
    assert [render(rec, fmt) for fmt in FORMATS] == [new(rec) for new, _ in RENDERERS]
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        render(rec, "xml")
