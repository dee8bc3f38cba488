"""Shared brute-force oracles and the acceptance summary hook.

The oracle helpers recompute cohomological data by exhaustive enumeration
with their own propagation loops, so they share no code path with the
engine they are used to check.
"""

import itertools
import shutil
import tempfile
from pathlib import Path

import numpy
import pytest

from h1loc import CocycleSystem, ModulusContext, close_group

ACCEPTANCE_RESULTS = []


def record_acceptance(number: int, name: str, passed: bool):
    ACCEPTANCE_RESULTS.append((number, name, passed))


def pytest_configure(config):
    # hypothesis caches the constants it reads from local source files in its
    # home directory, ./.hypothesis by default, while it collects tests; give
    # it a temporary home instead, removed when the session ends.
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    home = Path(tempfile.mkdtemp(prefix="h1loc-hypothesis-"))
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, name, passed in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            f"criterion {number} ({name}): {'PASS' if passed else 'FAIL'}"
        )


def action_of(group, module, index):
    return module.action_entries(group.matrix(index).entries)


def oracle_product(keys, q):
    """The product of 2x2 keys, left to right, mod q: numpy on Python
    integers (object dtype), independent of the package's key arithmetic."""
    acc = numpy.identity(2, dtype=object)
    for k in keys:
        acc = acc.dot(numpy.array(k, dtype=object).reshape(2, 2)) % q
    return tuple(int(x) for x in acc.flat)


def oracle_power(key, k, q):
    """key^k mod q for k >= 0: numpy's matrix_power on Python integers."""
    m = numpy.linalg.matrix_power(numpy.array(key, dtype=object).reshape(2, 2), k)
    return tuple(int(x) % q for x in m.flat)


def act(entries, v, q):
    a, b, c, d = entries
    return ((a * v[0] + b * v[1]) % q, (c * v[0] + d * v[1]) % q)


def brute_cocycle_tables(group, module):
    """All valid value tables, by trying every generator assignment."""
    n = len(group)
    q = module.coeff_modulus
    gens = group.distinct_generator_indices()
    acts = [action_of(group, module, i) for i in range(n)]
    vectors = [(x, y) for x in range(q) for y in range(q)]
    tables = set()
    for assign in itertools.product(vectors, repeat=len(gens)):
        table = [None] * n
        table[0] = (0, 0)
        frontier = [0]
        consistent = True
        while frontier and consistent:
            nxt = []
            for a in frontier:
                for j, g in enumerate(gens):
                    b = group.mult(a, g)
                    va = table[a]
                    image = act(acts[a], assign[j], q)
                    cand = ((va[0] + image[0]) % q, (va[1] + image[1]) % q)
                    if table[b] is None:
                        table[b] = cand
                        nxt.append(b)
                    elif table[b] != cand:
                        consistent = False
            frontier = nxt
        if not consistent or any(t is None for t in table):
            continue
        ok = all(
            table[group.mult(a, b)]
            == (
                (table[a][0] + act(acts[a], table[b], q)[0]) % q,
                (table[a][1] + act(acts[a], table[b], q)[1]) % q,
            )
            for a in range(n)
            for b in range(n)
        )
        if ok:
            tables.add(tuple(table))
    return tables


def brute_coboundary_tables(group, module):
    n = len(group)
    q = module.coeff_modulus
    acts = [action_of(group, module, i) for i in range(n)]
    out = set()
    for m in itertools.product(range(q), repeat=2):
        table = []
        for i in range(n):
            im = act(acts[i], m, q)
            table.append(((im[0] - m[0]) % q, (im[1] - m[1]) % q))
        out.add(tuple(table))
    return out


def brute_local_tables(group, module, tables):
    n = len(group)
    q = module.coeff_modulus
    acts = [action_of(group, module, i) for i in range(n)]
    vectors = list(itertools.product(range(q), repeat=2))
    out = set()
    for table in tables:
        good = True
        for i in range(n):
            target = table[i]
            hit = False
            for m in vectors:
                im = act(acts[i], m, q)
                if ((im[0] - m[0]) % q, (im[1] - m[1]) % q) == target:
                    hit = True
                    break
            if not hit:
                good = False
                break
        if good:
            out.add(table)
    return out


def engine_tables(group, module, basis):
    """Expand a generator-coordinate basis into the set of value tables."""
    system = CocycleSystem(group, module)
    return {system.expand(v.coords).values for v in basis.enumerate_span()}


def small_group(p, n, gens, label=None):
    ctx = ModulusContext(p, n)
    return close_group(gens, ctx, label=label)


@pytest.fixture(scope="session")
def oracle_instances():
    """(group, module kind) pairs with |G| <= 8 and |M| <= 81."""
    from h1loc import GModule

    instances = []

    def add(p, n, gens, kinds, label):
        g = small_group(p, n, gens, label=label)
        assert len(g) <= 8, (label, len(g))
        for kind in kinds:
            module = GModule(g.ctx, kind)
            assert module.size <= 81
            instances.append((g, module))

    three_kinds = ("full", "p_torsion", "mod_p_quotient")
    add(3, 2, [[[-1, 0], [0, -1]]], three_kinds, "minus-id")
    add(3, 2, [[[4, 0], [0, 1]]], three_kinds, "diag4")
    add(3, 2, [[[2, 0], [0, 1]]], three_kinds, "diag2")
    add(3, 2, [[[1, 3], [0, 1]]], three_kinds, "unitriangular-3")
    add(3, 2, [[[0, -1], [1, 0]]], three_kinds, "rotation")
    add(3, 2, [[[0, -1], [1, -1]]], three_kinds, "order3-irreducible")
    add(3, 2, [[[-1, 0], [0, 1]], [[1, 3], [0, 1]]], three_kinds, "dihedral-kernel")
    add(3, 2, [[[2, 0], [0, 5]]], three_kinds, "diag25")
    add(3, 1, [[[1, 1], [0, 1]]], ("full",), "unipotent-f3")
    add(3, 1, [[[1, 1], [0, 1]], [[1, 0], [0, -1]]], ("full",), "borel-f3")
    add(5, 1, [[[2, 0], [0, 1]]], ("full",), "diag-f5")
    add(5, 1, [[[1, 1], [0, 1]]], ("full",), "unipotent-f5")
    add(5, 1, [[[0, -1], [1, 0]]], ("full",), "rotation-f5")
    return instances
