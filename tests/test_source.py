"""Properties of the package source itself."""

import ast
from pathlib import Path

import h1loc


def test_no_assert_statements():
    # python -O strips assert statements, so no guarantee may rest on one.
    package = Path(h1loc.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
