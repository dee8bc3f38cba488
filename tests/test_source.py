"""Properties of the package source itself."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import h1loc
from h1loc import cohomology


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
    # A failed re-check raises ConsistencyError, as the README promises, and
    # cli.main dispatches through the parser, so no bare AssertionError
    # stands in for an unhandled subcommand.
    found = [
        f"{name}:{getattr(top, 'name', top.lineno)}"
        for name, tree in parsed_modules()
        for top in tree.body
        for node in ast.walk(top)
        if _raises_assertion_error(node)
    ]
    assert found == []


def _defined_functions(tree, class_name):
    return {
        node.name
        for top in tree.body
        if isinstance(top, ast.ClassDef) and top.name == class_name
        for node in top.body
        if isinstance(node, ast.FunctionDef)
    }


def _names(tree, name):
    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
    ]


def test_group_arithmetic_has_one_home():
    # 2x2 products, powers, inverses, determinants and shifts of group
    # elements live on keys in groups, and a group hands out keys, never a
    # matrix object.
    modules = dict(parsed_modules())
    assert "matrix" not in _defined_functions(modules["groups.py"], "FiniteMatrixGroup")


def test_a_matrix_is_its_rows():
    # A general matrix over Z/p^n is its list of rows: the Howell form,
    # kernel and image each have one entry point, which takes the rows and
    # the width.  No matrix class or second Howell entry point survives in
    # src, and the package exports neither.
    package = Path(h1loc.__file__).parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for name in ("ModMatrix", "howell_form"):
            assert name not in source, (path.name, name)
    for name in ("ModMatrix", "howell_form"):
        assert name not in h1loc.__all__ and not hasattr(h1loc, name)


def test_the_2x2_solve_has_one_home():
    # Every "is b in Im m" question on a 2x2 matrix goes through zmod.solve2:
    # no general solver, column span or span cache survives in src, and
    # solve2 uses no Howell code, so the cross-check that rests on it stays
    # independent of the annihilator rows.  The one exception is the line
    # `solve_linear = solve2` in zmod, the name bench/tracer.py binds the
    # solve metrics to: it is solve2 itself, and the package does not export it.
    alias = "solve_linear = solve2"
    package = Path(h1loc.__file__).parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.name == "zmod.py":
            assert source.count(alias) == 1
            source = source.replace(alias, "")
        for name in ("column_span2", "LinearSolver", "LinearSolution", "solve_linear", "_spans"):
            assert name not in source, (path.name, name)
    assert "solve_linear" not in h1loc.__all__
    (solve2,) = [node for node in dict(parsed_modules())["zmod.py"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "solve2"]
    assert _names(solve2, "_howell_raw") == [] and _names(solve2, "_kernel_raw") == []
    assert _names(solve2, "ConsistencyError")


def _top_function(tree, name):
    (node,) = [top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == name]
    return node


def _order_loops(tree) -> list[int]:
    """The loops that step a name by a product and compare it with 1: an
    order found by hand."""
    found = []
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        stepped = {node.targets[0].id for node in ast.walk(loop)
                   if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                   and any(isinstance(op, ast.Mult) for op in ast.walk(node.value))}
        compared = {side.id for node in ast.walk(loop) if isinstance(node, ast.Compare)
                    and any(isinstance(c, ast.Constant) and c.value == 1 for c in [node.left, *node.comparators])
                    for side in [node.left, *node.comparators] if isinstance(side, ast.Name)}
        if stepped & compared:
            found.append(loop.lineno)
    return found


def test_the_cocycle_identity_and_element_orders_have_one_home():
    # cohomology._walk is the one loop that checks the cocycle identity on
    # Cayley edges: verify_cocycle has no loop of its own and calls it, and
    # CocycleSystem keeps no walk of its own.  Orders come from
    # groups.element_order: no loop in constructions multiplies until it
    # reaches 1, and the two order questions there call element_order.
    modules = dict(parsed_modules())
    verify = _top_function(modules["cohomology.py"], "verify_cocycle")
    assert not [node for node in ast.walk(verify) if isinstance(node, (ast.For, ast.While))]
    assert _names(verify, "_walk")
    assert "_walk" not in _defined_functions(modules["cohomology.py"], "CocycleSystem")
    assert not hasattr(cohomology.CocycleSystem, "_walk")
    constructions = modules["constructions.py"]
    assert _order_loops(constructions) == []
    for name in ("canonical_unit_lift", "report_cyclic_quotient"):
        assert _names(_top_function(constructions, name), "element_order"), name
    # An order is not read off the length of a power walk either.
    source = (Path(h1loc.__file__).parent / "constructions.py").read_text(encoding="utf-8")
    assert "len(_powers4(" not in source


def _calls_reaching(tree, name, target) -> int:
    """How many calls of target the module function name makes, directly or
    through the module's other functions."""
    defs = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    count = 0
    for node in ast.walk(defs[name]):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callee = node.func.id
            if callee == target:
                count += 1
            elif callee in defs and callee != name:
                count += _calls_reaching(tree, callee, target)
    return count


def test_a_quotients_relations_are_one_kernel():
    # quotient_structure builds the relations of big/small as one kernel of
    # [big^T | -small^T] and one Howell form of its first r coordinates; the
    # dual constraints of small, a second home for a kernel, are gone.
    zmod = dict(parsed_modules())["zmod.py"]
    assert _calls_reaching(zmod, "quotient_structure", "_kernel_raw") == 1
    quotient = _top_function(zmod, "quotient_structure")
    assert len(_names(quotient, "_howell_raw")) == 1
    package = Path(h1loc.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert "dual_constraints" not in path.read_text(encoding="utf-8"), path.name
    assert "dual_constraints" not in h1loc.__all__ and not hasattr(h1loc, "dual_constraints")


def test_the_paper_checks_run_on_the_engines_own_code():
    # The random power-identity trials are drawn in one place, which both
    # the power-identity command and the borel-shared report call; the
    # criterion keeps no hom-space dimension nobody reads.
    modules = dict(parsed_modules())
    draws = [(name, node.lineno) for name, tree in modules.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "randrange"
             and isinstance(node.value, ast.Name) and node.value.id == "rng"]
    trials = _top_function(modules["groups.py"], "power_identity_trials")
    assert draws and all(name == "groups.py" and trials.lineno <= line <= trials.end_lineno
                         for name, line in draws)
    assert _names(_top_function(modules["cli.py"], "_cmd_power_identity"), "power_identity_trials")
    assert _names(_top_function(modules["constructions.py"], "report_borel_shared"), "power_identity_trials")
    from h1loc.constructions import CriterionChecks, HomSpace

    assert "hom_space_dimension" not in CriterionChecks._fields
    assert {"basis_matrices", "subgroup_indices"}.isdisjoint(HomSpace._fields)


def test_verify_all_builds_one_system_per_group_and_module(monkeypatch):
    # Two groups with the same generator keys are the same group, so no two
    # cocycle systems of one verify run share generator keys, modulus and
    # module kind.
    from h1loc.constructions import verify_all

    built = []
    init = cohomology.CocycleSystem.__init__

    def recording_init(self, group, module):
        built.append((tuple(group._keys[i] for i in group.generators), group.ctx.modulus, module.kind))
        init(self, group, module)

    monkeypatch.setattr(cohomology.CocycleSystem, "__init__", recording_init)
    verify_all([5])
    assert built and len(built) == len(set(built))


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


def test_one_group_type():
    # The quotient by the reduction kernel is the mod-p image, an ordinary
    # FiniteMatrixGroup: no second group type, coset arithmetic or dense
    # table survives, and cohomology never branches on a group's type.
    package = Path(h1loc.__file__).parent
    source = "\n".join(path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py")))
    for name in ("QuotientGroup", "GroupLike", "coset_of", "generator_cosets", "multiplication_table",
                 "reduce_group_mod_p"):
        assert name not in source, name
    cohomology = dict(parsed_modules())["cohomology.py"]
    calls = [
        node.lineno
        for node in ast.walk(cohomology)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
        and any(isinstance(a, ast.Name) and a.id.endswith("Group") for a in ast.walk(node.args[1]))
    ]
    assert calls == []


def test_vectors_and_2x2_matrices_are_plain_tuples():
    # A module vector is a tuple of ints, and inside the cocycle engine a
    # 2x2 matrix is a row-major 4-tuple: no vector class or per-action local
    # entry survives.
    found = [
        f"{name}:{node.name}"
        for name, tree in parsed_modules()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in ("ModVector", "LocalEntry")
    ]
    assert found == []
    assert not hasattr(h1loc, "ModVector") and not hasattr(h1loc, "LocalEntry")


def test_every_exported_name_resolves_lazily():
    assert len(h1loc.__all__) == len(set(h1loc.__all__))
    layers = [importlib.import_module(f"h1loc.{path.stem}")
              for path in Path(h1loc.__file__).parent.glob("*.py") if path.stem != "__init__"]
    for name in h1loc.__all__:
        value = getattr(h1loc, name)
        assert any(vars(layer).get(name, None) is value for layer in layers), name
    assert "h1_loc" not in vars(h1loc) and h1loc.h1_loc is cohomology.h1_loc
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        h1loc.no_such_name
    with pytest.raises(ImportError):
        from h1loc import no_such_name  # noqa: F401


def test_imports_sit_at_module_top_except_in_cli_handlers():
    # The package __init__ imports no submodule, and a module imports inside
    # a function only in cli: in the handlers, each for the layer or the
    # stdlib module it alone runs; in build_parser, which imports argparse
    # only for the argv that the fast parse leaves to it; and json where a
    # group file is read and where the report writer falls back to it.
    modules = dict(parsed_modules())
    assert not [node for node in modules["__init__.py"].body
                if isinstance(node, ast.ImportFrom) and node.level]
    found = [
        f"{name}:{top.name}"
        for name, tree in modules.items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == ["cli.py:_json_text", "cli.py:_load_group", "cli.py:_cmd_cohomology",
                     "cli.py:_cmd_verify", "cli.py:_cmd_scan", "cli.py:_cmd_power_identity",
                     "cli.py:build_parser"]


def _package_imports(tree) -> set[str]:
    """The package modules that a module's relative imports name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module] if node.module else [alias.name for alias in node.names])
    return out


def test_the_light_cli_paths_compile_no_linear_algebra():
    # scan and power-identity run no Howell code, so the modules they load
    # do not import zmod: ring, the coefficient ring, imports only errors,
    # and neither groups nor classify imports zmod.
    modules = dict(parsed_modules())
    assert _package_imports(modules["ring.py"]) == {"errors"}
    for name in ("groups.py", "classify.py"):
        assert "zmod" not in _package_imports(modules[name]), name


def _modules_loaded_by(code: str) -> set[str]:
    src = str(Path(h1loc.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code + "; import sys; print(*sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_start_up_generates_no_dataclass_code():
    # Every invocation is a fresh process: no layer imports dataclasses,
    # which would pull in inspect (and with it ast, dis and tokenize) and
    # generate each class's methods at import.  Records are NamedTuples,
    # and the validated values are slots classes.
    found = [
        f"{name}:{node.lineno}"
        for name, tree in parsed_modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []
    added = _modules_loaded_by(
        "import h1loc.cli, h1loc.cohomology, h1loc.constructions, h1loc.classify"
    ) - _modules_loaded_by("pass")
    assert "h1loc.cohomology" in added
    assert added.isdisjoint({"dataclasses", "inspect"})


def test_the_fast_exit_has_one_home():
    # Only the process entry point skips interpreter teardown, and both ways
    # of starting a process go through it.
    modules = dict(parsed_modules())
    exits = [(name, node.lineno) for name, tree in modules.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "_exit"]
    run = next(node for node in modules["cli.py"].body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    assert len(exits) == 1
    assert exits[0][0] == "cli.py" and run.lineno <= exits[0][1] <= run.end_lineno
    main_block = [node for node in modules["cli.py"].body
                  if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node) for node in main_block[0].body] == ["run()"]
    pyproject = Path(h1loc.__file__).parent.parent.parent / "pyproject.toml"
    if pyproject.exists():  # absent when the package is installed
        assert '[project.scripts]\nh1loc = "h1loc.cli:run"\n' in pyproject.read_text(encoding="utf-8")


def test_no_class_enumeration_in_src():
    # Inflation-restriction compares two Howell bases, so src lists no class
    # and does no cocycle arithmetic; a group keeps its generators distinct,
    # and the invariant factors of a quotient are read off quotient_structure.
    # The paper checks on solution sets and hom spaces read a basis, so src
    # lists no span either.
    package = Path(h1loc.__file__).parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for name in ("def classes", "CLASS_ENUM_LIMIT", "zero_cocycle", "class_form",
                     "distinct_generator_indices", "quotient_invariants", "enumerate_span",
                     "_solution_set", "SOLUTION_SET_LIMIT", "enumerate_maps", "map_values"):
            assert name not in source, (path.name, name)
    assert _defined_functions(dict(parsed_modules())["cohomology.py"], "Cocycle").isdisjoint(
        {"__add__", "__sub__", "scale"})
    assert "quotient_invariants" not in h1loc.__all__


def test_every_exported_function_has_a_reader():
    # The package exports what a CLI path or a paper check reads: each
    # exported function is read in a src module other than __init__,
    # outside its own def, or imported by tests/test_acceptance.py.
    modules = dict(parsed_modules())
    (exports,) = [ast.literal_eval(node.value) for node in modules.pop("__init__.py").body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_EXPORTS"]
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    checked = {alias.name for node in ast.walk(acceptance)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("h1loc")
               for alias in node.names}
    unread = []
    for module, names in exports.items():
        defs = {node.name: node for node in modules[f"{module}.py"].body
                if isinstance(node, ast.FunctionDef)}
        for name in sorted(set(names) & set(defs) - checked):
            own = defs[name]
            if not any(not (path == f"{module}.py" and own.lineno <= line <= own.end_lineno)
                       for path, tree in modules.items() for line in _names(tree, name)):
                unread.append(f"{module}.{name}")
    assert unread == []


def test_every_public_class_member_has_a_reader():
    # The same rule for classes: each public method or property of a class
    # in src is read as an attribute in src, outside its own def.  A member
    # that overrides one of a base from outside the package (a tuple's
    # count, say) is read by that base; dunders and private members are exempt.
    modules = parsed_modules()
    reads = [(path, node.attr, node.lineno) for path, tree in modules
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    unread = []
    for module, tree in modules:
        layer = importlib.import_module(f"h1loc.{module[:-3]}")
        for top in tree.body:
            if not isinstance(top, ast.ClassDef):
                continue
            foreign = [base for base in getattr(layer, top.name).__mro__[1:]
                       if not base.__module__.startswith("h1loc")]
            for node in top.body:
                if (not isinstance(node, ast.FunctionDef) or node.name.startswith("_")
                        or any(hasattr(base, node.name) for base in foreign)):
                    continue
                if not any(attr == node.name and not (path == module and node.lineno <= line <= node.end_lineno)
                           for path, attr, line in reads):
                    unread.append(f"{module[:-3]}.{top.name}.{node.name}")
    assert unread == []


def _message_pieces(node):
    """The literal pieces of a string or f-string, None for each formatted
    value; None for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return [v.value if isinstance(v, ast.Constant) else None for v in node.values]
    return None


def _unfired(catches):
    """The `raise C(...)` sites in src, C a key of catches, that no
    `pytest.raises(B, match=...)` in tests/ fires, B one of catches[C].  A
    site matches when the test's pattern is found in its message, or its
    message (each formatted value read as ".*") in the test's.  Returns the
    number of sites, and the unfired ones."""
    sites = [
        (name, node.exc.func.id, _message_pieces(node.exc.args[0]))
        for name, tree in parsed_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name) and node.exc.func.id in catches
    ]
    assert all(pieces for _, _, pieces in sites)
    patterns = [
        (node.args[0].id, _message_pieces(kw.value))
        for path in sorted(Path(__file__).parent.glob("test_*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "raises"
        and node.args and isinstance(node.args[0], ast.Name)
        for kw in node.keywords if kw.arg == "match"
    ]

    def text(pieces):
        return "".join("{}" if p is None else p for p in pieces)

    def matched(cls, site):
        site_regex = "".join(".*" if p is None else re.escape(p) for p in site)
        return any(re.search("".join(".*" if p is None else p for p in pat), text(site))
                   or re.search(site_regex, text(pat))
                   for caught, pat in patterns if pat and caught in catches[cls])

    return len(sites), [f"{name}: {text(pieces)}" for name, cls, pieces in sites if not matched(cls, pieces)]


def test_every_self_check_fires_in_a_test():
    # Each `raise ConsistencyError(...)` in src is matched by a
    # `pytest.raises(ConsistencyError, match=...)` in tests/, which fires it
    # by breaking the computation it guards.  Every site is reachable by an
    # injected fault, so none is exempt.  The count follows the design: it
    # changes when a re-check is added, retyped or deleted.
    assert _unfired({"ConsistencyError": {"ConsistencyError"}}) == (29, [])


def test_every_contract_guard_fires_in_a_test():
    # The same rule for a library caller's misuse: each raise of
    # ContractError, DimensionError or ContainmentError in src is matched by
    # a `pytest.raises` of its class or of ContractError, with a `match=`
    # that finds its message, so no guard stands that no test reaches.
    assert _unfired({
        "ContractError": {"ContractError"},
        "DimensionError": {"DimensionError", "ContractError"},
        "ContainmentError": {"ContainmentError", "ContractError"},
    }) == (15, [])
