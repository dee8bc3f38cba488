"""Properties of the package source itself."""

import ast
from pathlib import Path

import h1loc


def parsed_modules():
    package = Path(h1loc.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in modules]


def test_no_assert_statements():
    # python -O strips assert statements, so no guarantee may rest on one.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_failed_rechecks_raise_consistency_error():
    # A failed re-check raises ConsistencyError, as the README promises.  The
    # one bare AssertionError allowed is cli.main's fallback after it has
    # dispatched every subcommand, which argparse makes unreachable.
    found = [
        f"{name}:{getattr(top, 'name', top.lineno)}"
        for name, tree in parsed_modules()
        for top in tree.body
        for node in ast.walk(top)
        if _raises_assertion_error(node)
    ]
    assert found == ["cli.py:main"]
