"""Shared brute-force oracles and the acceptance summary hook.

The brute-force helpers recompute cohomological data by exhaustive
enumeration with their own propagation loops, so they share no code path
with the engine they are used to check.  report_classes lists one cocycle
per class of an H^1 report by expanding coordinate combinations.  With it,
assert_h1_loc_is_the_local_classes keeps the class enumeration that h1_loc
once ran as its cross-check, as the oracle of the cross-check on socle
lines that replaced it, and inflation_restriction_oracle keeps the
class-by-class inflation-restriction check, as the oracle of the two
Howell bases that replaced it, on the reduction kernel re-enumerated by
subgroup_from_indices.  verify_cocycle_all_pairs checks the cocycle
identity at every pair, the oracle of the per-edge verify_cocycle, and
spanning_tree_by_scan the oracle of the spanning tree that the closure
records.
reference_solve is the general linear solver over Z/p^n, the oracle of
zmod.solve2, least_valuation_solve2 the oracle of solve2's unit-pivot
shortcut, and mat_vec the matrix-vector product their results are
checked with.  enumerate_span lists every element of a span, the
oracle of the checks that src decides from a basis instead: the paper
checks on affine solution sets of (x - Id) v = b, and the injective and
prescribed-value homs of a HomSpace.  dual_constraint_relations keeps
the route by which quotient_structure once built its relations, through
the dual constraints of the smaller span, as the oracle of the one
kernel that replaced it.  Every report that a test writes through cli._emit is
checked against json.dumps(indent=2, sort_keys=True), the oracle of
cli._json_text, by the autouse fixture reports_match_json_dumps.
"""

import itertools
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy
import pytest

from h1loc import (
    CocycleSystem,
    ModulusContext,
    close_group,
    equivariant_homs,
    full_module,
    h1_loc,
    howell_from_rows,
    inflate_cocycle,
    kernel_basis,
    is_coboundary,
    quotient_group,
    reduction_kernel,
    restrict_cocycle,
    torsion_module,
)
from h1loc import cli
from h1loc.groups import _rows
from h1loc.zmod import _howell_raw

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
    return module.action_entries(group._keys[index])


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


def verify_cocycle_all_pairs(c):
    """The identity Z(ab) = Z(a) + a.Z(b) at every pair (a, b): the oracle
    of cohomology.verify_cocycle, which checks only the Cayley edges of the
    generators (and Z(1) = 0, which the pair (1, 1) gives here)."""
    group, module, values = c.group, c.module, c.values
    q = module.coeff_modulus
    for a in range(len(group)):
        entries, (va0, va1) = action_of(group, module, a), values[a]
        for b in range(len(group)):
            w0, w1 = act(entries, values[b], q)
            if values[group.mult(a, b)] != ((va0 + w0) % q, (va1 + w1) % q):
                return False
    return True


def subgroup_from_indices(g, indices, label=None):
    """Re-enumerate a subgroup, given as indices of g, as its own group,
    generated by the greedy generators of g.subgroup_generators."""
    target = frozenset(indices)
    gens = g.subgroup_generators(target)
    assert gens is not None, "index set is not closed under multiplication"
    sub = close_group([_rows(g._keys[i]) for i in gens], g.ctx, label=label)
    assert len(sub) == len(target)
    return sub


def spanning_tree_by_scan(group):
    """(parent, slot) as they were derived before the closure recorded its
    first edges: the first edge into element y > 0 is the first entry y of
    the edge table _right, found by scanning on from the previous one, and
    its position divided by the number of generators is the parent and the
    slot."""
    k, right, n = len(group.generators), group._right, len(group)
    parent, slot = [0] * n, [0] * n
    pos = 0
    for y in range(1, n):
        pos = right.index(y, pos)
        parent[y], slot[y] = divmod(pos, k)
    return parent, slot


def mat_vec(ctx, a, v):
    """The product a v mod p^n over ctx of the matrix with rows a and a
    vector of its width."""
    assert all(len(row) == len(v) for row in a)
    q = ctx.modulus
    return tuple(sum(row[k] * v[k] for k in range(len(v))) % q for row in a)


def reference_solve(ctx, a, b):
    """One x with a x = b over ctx for the matrix with rows a, or None, and
    the kernel rows of a; b is reduced modulo p^n first.  One Howell form
    of [a^T | Id] per call: its rows with a nonzero left part pair a Howell
    basis of the column span of a with the coefficients that produce each
    basis vector, and its rows with a zero left part are a basis of the
    kernel of a.  Nothing is kept between calls."""
    q = ctx.modulus
    m, ncols = len(a), len(a[0])
    aug = []
    for j in range(ncols):
        row = [a[i][j] for i in range(m)]
        row.extend(1 if k == j else 0 for k in range(ncols))
        aug.append(row)
    h = _howell_raw(aug, m + ncols, ctx)
    bb = [x % q for x in b]
    x = [0] * ncols
    kernel_rows = []
    for row in h:
        left = row[:m]
        if any(left):
            col = next(j for j, e in enumerate(left) if e)
            c = bb[col] // left[col]
            if c:
                for j in range(m):
                    bb[j] = (bb[j] - c * left[j]) % q
                for j in range(ncols):
                    x[j] = (x[j] + c * row[m + j]) % q
        else:
            kernel_rows.append(row[m:])
    solution = None if any(bb) else tuple(x)
    return solution, [tuple(r) for r in kernel_rows]


def least_valuation_solve2(ctx, m, b):
    """zmod.solve2 as it was before its unit-pivot shortcut, the oracle of
    that shortcut: the pivot is the first entry of least valuation, found
    from all four valuations.  Returns x or None, without the re-check."""
    p, q = ctx.p, ctx.modulus
    m = tuple(e % q for e in m)
    b = (b[0] % q, b[1] % q)
    vals = [ctx.valuation(e) for e in m]
    i = min(range(4), key=lambda j: vals[j][0])
    v, unit = vals[i]
    f, g, h = m[i ^ 1], m[i ^ 2], m[i ^ 3]
    c0, c1 = (b[1], b[0]) if i >= 2 else b
    pv, ui = p**v, ctx.unit_inverse(unit)
    k, l = g // pv * ui % q, f // pv * ui % q
    w, hunit = ctx.valuation(h - k * f)
    c1 = (c1 - k * c0) % q
    if c0 % pv or c1 % p**w:
        return None
    z1 = c1 // p**w * ctx.unit_inverse(hunit) % q
    x = ((c0 // pv * ui - l * z1) % q, z1)
    return x[::-1] if i % 2 else x


def dual_constraint_relations(big, small):
    """The relation rows of span(big)/span(small), c with sum_j c_j big_j in
    span(small), in Howell form: the kernel of K B^T, where the rows of K
    are the dual constraints of small (ker K = span(small), re-checked by
    the double annihilator) and the rows of B are big's."""
    ctx, d = big.ctx, big.ambient_dim
    q = ctx.modulus
    constraints = kernel_basis(ctx, d, small.rows).rows
    assert kernel_basis(ctx, d, constraints) == small
    # Row i, column j: constraint row i applied to basis row j of big.
    t = [[sum(k * b for k, b in zip(krow, brow)) % q for brow in big.rows] for krow in constraints]
    return [list(row) for row in kernel_basis(ctx, len(big.rows), t).rows]


def enumerate_span(basis):
    """Every element of the span of a SubmoduleBasis exactly once: one
    combination of its Howell rows per choice of coefficients, the one of
    a row with pivot p^v in range(p^(n-v))."""
    q = basis.ctx.modulus
    for combo in itertools.product(*(range(q // piv) for _, piv in basis.pivots())):
        acc = [0] * basis.ambient_dim
        for c, row in zip(combo, basis.rows):
            for j in range(basis.ambient_dim):
                acc[j] = (acc[j] + c * row[j]) % q
        yield tuple(acc)


def all_solutions(ctx, a, b):
    """Every x with a x = b over ctx for the matrix with rows a:
    reference_solve's solution plus each element of the kernel span,
    enumerated once; empty when there is none."""
    solution, kernel_rows = reference_solve(ctx, a, b)
    if solution is None:
        return []
    q = ctx.modulus
    kernel = howell_from_rows(ctx, len(a[0]), kernel_rows)
    return [tuple((s + k) % q for s, k in zip(solution, v)) for v in enumerate_span(kernel)]


def brute_cocycle_tables(group, module):
    """All valid value tables, by trying every generator assignment."""
    n = len(group)
    q = module.coeff_modulus
    gens = group.generators
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


def full_harvest(system):
    """The eager harvest: one breadth-first walk of the Cayley graph that
    keeps every element's linear map L[i] (Z(element i) = L[i] u, a pair of
    rows) and stacks the nonzero consistency rows of every edge off the
    tree.  Returns (rows, L); the engine's lazy harvest must give the same
    Howell basis."""
    q, dim = system.q, system.dim
    n = len(system.group)
    L = [None] * n
    L[0] = ([0] * dim, [0] * dim)
    order = [0]
    rows = []
    for x in order:
        lx = L[x]
        a, b, c, d = system.acts[x]
        for slot, tg in enumerate(system.targets):
            y = tg[x]
            r0, r1 = lx[0][:], lx[1][:]
            j0, j1 = 2 * slot, 2 * slot + 1
            r0[j0] = (r0[j0] + a) % q
            r0[j1] = (r0[j1] + b) % q
            r1[j0] = (r1[j0] + c) % q
            r1[j1] = (r1[j1] + d) % q
            if L[y] is None:
                L[y] = (r0, r1)
                order.append(y)
            else:
                for ly, r in zip(L[y], (r0, r1)):
                    row = [(u - v) % q for u, v in zip(ly, r)]
                    if any(row):
                        rows.append(row)
    assert len(order) == n
    return rows, L


def report_classes(system, report):
    """One cocycle per class of report, an H^1 or H^1_loc of the system's
    group and module: the expansion of sum_i c_i y_i for 0 <= c_i < d_i,
    with d_i the invariant factors and y_i the report's generator
    coordinates, in itertools.product order of the digits c, the zero
    class first."""
    q = system.q
    gens = report.generators
    reps = []
    for combo in itertools.product(*(range(d) for d in report.invariant_factors)):
        vec = [0] * system.dim
        for coeff, y in zip(combo, gens):
            vec = [(v + coeff * x) % q for v, x in zip(vec, y)]
        reps.append(system.expand(vec))
    return reps


def class_form(system, c):
    """Canonical coordinates of the class of the cocycle c modulo B^1."""
    return system.b1().reduce(system.compress(c))


def assert_h1_loc_is_the_local_classes(group, module):
    """S = M against the class-enumeration oracle: every class of H^1, in
    report_classes order, is tested at every element against the column
    span of g - Id (CocycleSystem.is_local_table), and the local ones must
    be exactly the classes of h1_loc's answer, whose own socle-line
    cross-check must have run."""
    system = CocycleSystem(group, module)
    local = {class_form(system, c) for c in report_classes(system, system.h1()) if system.is_local_table(c)}
    report = h1_loc(group, module)
    assert report.cross_check.startswith("ran: "), report.cross_check
    assert {class_form(system, c) for c in report_classes(system, report)} == local
    return report


def inflation_restriction_oracle(g):
    """The inflation-restriction check class by class, as
    inflation_restriction_check once ran it: every class of
    H^1(G, V[p]) restricted to the re-enumerated reduction kernel and
    tested with is_coboundary, and every class of H^1(G/G(p), F_p^2)
    inflated.  Returns the eight report fields as a dict, with
    kernel_of_restriction and image_of_inflation as the frozensets of the
    class forms (class_form) of their classes."""
    h_idx = reduction_kernel(g)
    hsub = subgroup_from_indices(g, h_idx, label="reduction-kernel")
    system = CocycleSystem(g, torsion_module(g.ctx))
    image = quotient_group(g)
    image_system = CocycleSystem(image, full_module(image.ctx))
    rep_g, rep_q = system.h1(), image_system.h1()
    ker_res = frozenset(class_form(system, c) for c in report_classes(system, rep_g)
                        if is_coboundary(restrict_cocycle(c, hsub)) is not None)
    im_inf = frozenset(class_form(system, inflate_cocycle(g, c)) for c in report_classes(image_system, rep_q))
    zero = frozenset({(0,) * system.dim})
    hom_order = g.ctx.p ** equivariant_homs(g, h_idx).dimension
    return dict(
        h1_group_order=rep_g.order,
        h1_quotient_order=rep_q.order,
        hom_space_order=hom_order,
        kernel_of_restriction=ker_res,
        image_of_inflation=im_inf,
        exact=ker_res == im_inf,
        restriction_injective=ker_res == zero,
        restriction_bijective_onto_invariants=ker_res == zero and rep_g.order == hom_order,
    )


def basis_class_forms(system, basis):
    """The class forms of every element of a submodule of Z^1 that holds
    B^1, such as a field of InflationRestrictionReport."""
    b1 = system.b1()
    return frozenset(b1.reduce(v) for v in enumerate_span(basis))


def engine_tables(group, module, basis):
    """Expand a generator-coordinate basis into the set of value tables."""
    system = CocycleSystem(group, module)
    return {system.expand(v).values for v in enumerate_span(basis)}


def construction_groups(p):
    """The six construction groups at p, labelled; at p = 7, 1 mod 3, the
    S_3 one is the closure of its generators."""
    from h1loc.constructions import (
        build_borel_disjoint_group,
        build_borel_index2_group,
        build_borel_shared_group,
        build_cyclic_quotient_group,
        build_s3_quotient_group,
        s3_generators,
    )

    s3 = (build_s3_quotient_group(p) if p % 3 == 2
          else close_group(s3_generators(p), ModulusContext(p, 2), label="s3-quotient"))
    return [s3, build_cyclic_quotient_group(p), build_borel_shared_group(p), build_borel_index2_group(p),
            build_borel_disjoint_group(p, variant="canonical"),
            build_borel_disjoint_group(p, variant="extra-diagonal")]


def small_group(p, n, gens, label=None):
    ctx = ModulusContext(p, n)
    return close_group(gens, ctx, label=label)


@pytest.fixture(autouse=True)
def reports_match_json_dumps(monkeypatch):
    """Checks the text of every report written in process by cli._emit."""
    emit = cli._emit

    def checked_emit(payload, path):
        text, expected = cli._json_text(payload), json.dumps(payload, indent=2, sort_keys=True)
        if text != expected:  # not assert: pytest's diff of two long reports takes minutes
            at = len(os.path.commonprefix([text, expected]))
            pytest.fail(f"cli._json_text departs from json.dumps at offset {at}: "
                        f"{text[max(at - 20, 0):at + 20]!r} != {expected[max(at - 20, 0):at + 20]!r}")
        emit(payload, path)

    monkeypatch.setattr(cli, "_emit", checked_emit)


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
            assert module.coeff_modulus ** 2 <= 81
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
