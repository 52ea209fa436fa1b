"""Modules of the package import no private name from one another."""

import ast
from pathlib import Path

import projheight

SOURCES = sorted(Path(projheight.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cayley.py", "cli.py", "heights.py", "modular.py"}


def test_no_private_names_across_modules():
    private = [
        f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
