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
