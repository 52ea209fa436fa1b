"""Byte-exact stdout of the CLI, pinned in text, CSV and JSON.

Each file tests/golden/<name>.<format> holds the stdout of
`projheight <argv> --format <format>` for the command named below. The empty
cases pin the header a command writes when it has no rows.
"""

from pathlib import Path

import pytest

from projheight.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "height": ["height", "-p", "11", "-a", "2,3"],
    "table": ["table", "--pmin", "5", "--pmax", "13"],
    "spectrum": ["spectrum", "-p", "7", "-d", "3", "--check-bounds"],
    "gaps": ["gaps", "--pmax", "13", "--c", "1/2"],
    "cayley": ["cayley", "-p", "11", "-A", "1,7", "--exact", "--css", "--girth"],
    "cayley_witness": ["cayley", "-p", "7", "-A", "1,3", "--css"],
    "scan": ["scan", "--pmax", "7", "-d", "2", "--exact"],
    "scan_d3": ["scan", "--pmax", "13", "-d", "3"],
    "scan_d4": ["scan", "--pmax", "11", "-d", "4"],
    "table_empty": ["table", "--pmin", "3", "--pmax", "3"],
    "gaps_empty": ["gaps", "--pmin", "4", "--pmax", "4"],
    "scan_empty": ["scan", "--pmax", "3", "-d", "5"],
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_bytes(name, fmt, capsys):
    code = main(COMMANDS[name] + ["--format", fmt])
    captured = capsys.readouterr()
    assert code == EXIT_OK and captured.err == ""
    assert captured.out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
