"""Checks on the package source itself."""

import ast
import pathlib

import cmhodge

PACKAGE_DIR = pathlib.Path(cmhodge.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so invariants must raise typed errors instead
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(list(PACKAGE_DIR.glob("*.py"))) >= 10
    assert found == []


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_package_imports_only_names_it_uses():
    # the unused-import check of pyflakes, which the test toolchain does not ship;
    # the imports of __init__.py are the package's exports
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name != "__init__.py":
            found += _unused_imports(path)
    assert found == []
