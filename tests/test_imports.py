"""Modules of the package import only from the layers below them and no
private name from one another, use every name they import, and every name the
package exports is defined in its own sources and used by them or by the
acceptance tests."""

import ast
from pathlib import Path

import projheight

SOURCES = sorted(Path(projheight.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cayley.py", "cli.py", "heights.py", "modular.py"}


# each module and the package modules it may import: modular <- heights <-
# cayley <- cli, and report, which cli renders with, imports none
LAYERS = {
    "modular": set(),
    "report": set(),
    "heights": {"modular"},
    "cayley": {"modular", "heights"},
    "cli": {"modular", "heights", "cayley", "report"},
    "__main__": {"cli"},
    "__init__": {"modular", "heights", "cayley"},
}


def _package_imports(node):
    """The package modules an import node names, relative or absolute."""
    if isinstance(node, ast.ImportFrom) and node.level > 0:
        return [node.module] if node.module else [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        names = [node.module]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        return []
    return [(n.split(".") + ["__init__"])[1] for n in names if n.split(".")[0] == "projheight"]


def test_imports_follow_the_layers():
    assert {p.stem for p in SOURCES} == set(LAYERS)
    upward = [
        f"{path.name}:{node.lineno} imports {target}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for target in _package_imports(node)
        if target not in LAYERS[path.stem]
    ]
    assert upward == []


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


def test_every_export_is_defined_in_the_package():
    defined = set()
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
    dangling = [n for n in projheight.__all__ if not hasattr(projheight, n) or n not in defined]
    assert dangling == []


def test_every_export_is_used():
    # a name only re-exported by __init__ is code that nothing needs
    paths = [p for p in SOURCES if p.name != "__init__.py"]
    paths.append(Path(__file__).parent / "test_acceptance.py")
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [n for n in projheight.__all__ if n != "__version__" and n not in used]
    assert unused == []


def test_every_import_is_used():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue  # it imports to re-export
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} imports {name} unused")
    assert unused == []
