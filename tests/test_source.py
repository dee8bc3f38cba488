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


def _defined_functions(tree, class_name):
    return {
        node.name
        for top in tree.body
        if isinstance(top, ast.ClassDef) and top.name == class_name
        for node in top.body
        if isinstance(node, ast.FunctionDef)
    }


def test_group_arithmetic_has_one_home():
    # 2x2 products, powers, inverses and determinants of group elements
    # live on keys in groups; ModMatrix is a linear-algebra container.
    zmod = dict(parsed_modules())["zmod.py"]
    methods = _defined_functions(zmod, "ModMatrix")
    assert "vec_mul" in methods
    assert methods.isdisjoint({"__matmul__", "power", "inverse", "det2", "is_invertible"})


def test_no_per_element_class():
    # A group element is its index and its key; no module defines a class
    # that wraps one, and the package exports none.
    found = [
        f"{name}:{node.name}"
        for name, tree in parsed_modules()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and "Element" in node.name
    ]
    assert found == []
    assert not hasattr(h1loc, "GroupElement")
