"""The cocycle engine against brute force, examples, and its own axioms."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from h1loc import (
    Cocycle,
    CocycleSystem,
    ConsistencyError,
    ContractError,
    GModule,
    InputError,
    ModMatrix,
    ModulusContext,
    ModVector,
    close_group,
    closure_indices,
    equivariant_homs,
    full_module,
    h1,
    h1_loc,
    inflate_cocycle,
    inflation_restriction_check,
    is_coboundary,
    kernel_basis,
    quotient_group,
    reduction_kernel,
    restrict_cocycle,
    ResourceLimitError,
    LinearSolver,
    SubmoduleBasis,
    image_basis,
    solve_linear,
    subgroup_from_indices,
    torsion_module,
    verify_cocycle,
)
from h1loc import cohomology
from h1loc.cohomology import LocalEntry
from h1loc.constructions import (
    borel_shared_generators,
    borel_shared_witness,
    build_borel_disjoint_group,
    build_borel_index2_group,
    build_borel_shared_group,
    build_cyclic_quotient_group,
    build_s3_quotient_group,
    cyclic_generators,
    s3_generators,
)
from h1loc.zmod import _howell_raw, _kernel_raw, column_span2
from conftest import (
    brute_coboundary_tables,
    brute_cocycle_tables,
    brute_local_tables,
    engine_tables,
)

CTX25 = ModulusContext(5, 2)


def test_trivial_group_spaces():
    g = close_group([[[1, 0], [0, 1]]], CTX25)
    mod = full_module(CTX25)
    system = CocycleSystem(g, mod)
    assert system.z1().span_size() == 1
    assert system.b1().span_size() == 1
    assert system.z1_local().span_size() == 1
    assert h1(g, mod).order == 1


def test_minus_identity_coprime_vanishing():
    g = close_group([[[-1, 0], [0, -1]]], CTX25)
    mod = full_module(CTX25)
    system = CocycleSystem(g, mod)
    z1, b1 = system.z1(), system.b1()
    assert z1.span_size() == 625
    assert b1 == z1
    assert h1(g, mod).order == 1
    assert h1_loc(g, mod).order == 1


def test_coprime_vanishing_diagonal():
    # diag(7, 1) has order 4 mod 25, coprime to |V| = 5^4.
    g = close_group([[[7, 0], [0, 1]]], CTX25)
    assert h1(g, full_module(CTX25)).order == 1
    # A full-order unit is no longer coprime and cohomology appears.
    g20 = close_group([[[2, 0], [0, 1]]], CTX25)
    assert len(g20) == 20
    assert h1(g20, full_module(CTX25)).order == 5
    # Still locally trivial: on a cyclic group every local class dies.
    assert h1_loc(g20, full_module(CTX25)).order == 1


def test_coboundary_space_cases():
    # A group acting trivially on the module has no nonzero coboundaries.
    ctx9 = ModulusContext(3, 2)
    unit = close_group([[[1, 3], [0, 1]]], ctx9)
    assert CocycleSystem(unit, torsion_module(ctx9)).b1().span_size() == 1

    # For a diagonal with both entries shifted by p, the coboundary space
    # has order |V| / |fixed| = p^2.
    h = close_group([[[1 + 5, 0], [0, 1 - 5]]], CTX25)
    assert CocycleSystem(h, full_module(CTX25)).b1().span_size() == 25


def test_nesting_of_spaces():
    for gens in (s3_generators(5), cyclic_generators(5), borel_shared_generators(5)):
        g = close_group(gens, CTX25)
        for mod in (full_module(CTX25), torsion_module(CTX25)):
            system = CocycleSystem(g, mod)
            z1, z1loc, b1 = system.z1(), system.z1_local(), system.b1()
            assert all(z1loc.contains(r) for r in b1.rows)
            assert all(z1.contains(r) for r in z1loc.rows)


def test_h1loc_divides_h1_and_is_p_power():
    for builder in (build_s3_quotient_group, build_cyclic_quotient_group, build_borel_shared_group):
        g = builder(5)
        mod = full_module(g.ctx)
        full = h1(g, mod)
        loc = h1_loc(g, mod)
        assert full.order % loc.order == 0
        for order in (full.order, loc.order):
            while order % 5 == 0:
                order //= 5
            assert order == 1


def test_brute_force_oracle_equivalence(oracle_instances):
    assert len(oracle_instances) >= 20
    for group, module in oracle_instances:
        system = CocycleSystem(group, module)
        tables = brute_cocycle_tables(group, module)
        assert engine_tables(group, module, system.z1()) == tables
        cobs = brute_coboundary_tables(group, module)
        assert engine_tables(group, module, system.b1()) == cobs
        local = brute_local_tables(group, module, tables)
        assert engine_tables(group, module, system.z1_local()) == local
        assert h1_loc(group, module).order == len(local) // len(cobs)


def test_class_independence_of_local_condition():
    rng = random.Random(42)
    for gens in (cyclic_generators(5), borel_shared_generators(5)):
        g = close_group(gens, CTX25)
        mod = full_module(CTX25)
        system = CocycleSystem(g, mod)
        local = system.z1_local()
        b1 = system.b1()
        local_vecs = [v for v in local.rows]
        b_vecs = [v for v in b1.rows]
        if not local_vecs or not b_vecs:
            continue
        for _ in range(100):
            lv = rng.choice(local_vecs).scale(rng.randrange(25))
            bv = rng.choice(b_vecs).scale(rng.randrange(25))
            c = system.expand((lv + bv).coords)
            assert system.is_local_table(c)


def test_local_iff_cyclic_restrictions_are_coboundaries():
    groups = [
        close_group(cyclic_generators(5), CTX25),
        build_borel_disjoint_group(5),
        close_group(s3_generators(5), CTX25),
    ]
    rng = random.Random(8)
    for g in groups:
        mod = full_module(CTX25)
        system = CocycleSystem(g, mod)
        z1_rows = system.z1().rows
        samples = [row.coords for row in z1_rows]
        for _ in range(6):
            mix = [0] * system.dim
            for row in z1_rows:
                c = rng.randrange(25)
                mix = [(a + c * b) % 25 for a, b in zip(mix, row.coords)]
            samples.append(tuple(mix))
        for coords in samples:
            c = system.expand(coords)
            by_elements = system.is_local_table(c)
            by_restriction = True
            for idx in range(len(g)):
                sub = close_group([g.matrix(idx)], g.ctx)
                restricted = restrict_cocycle(c, sub)
                if is_coboundary(sub, full_module(CTX25), restricted) is None:
                    by_restriction = False
                    break
            assert by_elements == by_restriction


def test_is_coboundary_cases():
    g = close_group(cyclic_generators(5), CTX25)
    mod = full_module(CTX25)
    system = CocycleSystem(g, mod)
    zero = system.expand([0] * system.dim)
    m = is_coboundary(g, mod, zero)
    assert m is not None and m.coords == (0, 0)
    for row in system.b1().rows:
        c = system.expand(row.coords)
        assert is_coboundary(g, mod, c) is not None


def test_restriction_of_coboundary_is_coboundary():
    g = build_borel_shared_group(5)
    mod = full_module(g.ctx)
    system = CocycleSystem(g, mod)
    b_row = system.b1().rows[0]
    c = system.expand(b_row.coords)
    kernel = reduction_kernel(g)
    sub = subgroup_from_indices(g, kernel)
    restricted = restrict_cocycle(c, sub)
    assert is_coboundary(sub, full_module(sub.ctx), restricted) is not None


def test_restriction_to_identity_is_zero():
    g = build_borel_shared_group(5)
    w = borel_shared_witness(g).witness
    trivial = close_group([[[1, 0], [0, 1]]], g.ctx)
    restricted = restrict_cocycle(w, trivial)
    assert restricted.is_zero()


def test_inflation_cases():
    g = build_borel_shared_group(5)
    kernel = reduction_kernel(g)
    q = quotient_group(g, kernel)
    tor = GModule(g.ctx, "p_torsion")
    zero = Cocycle(q, tor, tuple((0, 0) for _ in range(len(q))))
    lifted = inflate_cocycle(q, zero)
    assert lifted.is_zero()

    bundle = borel_shared_witness(g)
    assert verify_cocycle(bundle.inflated)
    # Inflation then restriction to the kernel vanishes.
    sub = subgroup_from_indices(g, kernel)
    restricted = restrict_cocycle(bundle.inflated, sub)
    assert restricted.is_zero()


def test_inflated_class_lies_in_cocycle_space():
    g = build_borel_shared_group(5)
    bundle = borel_shared_witness(g)
    tor = torsion_module(g.ctx)
    system = CocycleSystem(g, tor)
    coords = ModVector(system.cctx, system.compress(bundle.inflated))
    assert system.z1().contains(coords)


def test_inflation_rejects_unfixed_values():
    # Values not fixed by the normal subgroup cannot be inflated.
    g = build_borel_shared_group(5)
    kernel = reduction_kernel(g)
    q = quotient_group(g, kernel)
    full = full_module(g.ctx)
    vals = [(0, 0)] * len(q)
    vals[1] = (1, 0)
    bad = Cocycle(q, full, tuple(vals))
    with pytest.raises(ContractError):
        inflate_cocycle(q, bad)


def test_quotient_h1_examples():
    s3 = build_s3_quotient_group(5)
    q = quotient_group(s3, reduction_kernel(s3))
    assert h1(q, GModule(s3.ctx, "p_torsion")).order == 1

    disjoint = build_borel_disjoint_group(5)
    qd = quotient_group(disjoint, reduction_kernel(disjoint))
    assert h1(qd, GModule(disjoint.ctx, "p_torsion")).order == 1


def test_h1_on_dihedral_quotient_of_shared_family():
    g = build_borel_shared_group(5)
    q = quotient_group(g, reduction_kernel(g))
    rep = h1(q, GModule(g.ctx, "p_torsion"))
    assert rep.order == 5


def test_equivariant_homs_trivial_action():
    # The kernel itself with inner conjugation: both actions are trivial,
    # so every linear map is equivariant and injective ones exist.
    ctx = CTX25
    g = close_group([[[1, 5], [0, 1]], [[6, 0], [0, 21]]], ctx)
    assert len(g) == 25
    hom = equivariant_homs(g, range(len(g)), torsion_module(ctx))
    assert hom.dimension == 4
    assert hom.injective_exists


def test_equivariant_homs_cyclic_family():
    g = build_cyclic_quotient_group(5)
    kernel = reduction_kernel(g)
    hom = equivariant_homs(g, kernel, torsion_module(g.ctx))
    h01 = g.index_of([[1, 5], [0, 1]])
    h10 = g.index_of([[6, 0], [0, 21]])
    found = any(
        hom.map_values(phi)[h01] == (1, 0) and hom.map_values(phi)[h10] == (0, 0)
        for phi in hom.enumerate_maps()
    )
    assert found


def test_equivariant_homs_s3_injective():
    g = build_s3_quotient_group(5)
    hom = equivariant_homs(g, reduction_kernel(g), torsion_module(g.ctx))
    assert hom.injective_exists


def test_equivariant_homs_rejects_non_elementary():
    g = close_group([[[1, 1], [0, 1]]], CTX25)  # order 25, cyclic
    from h1loc import InputError

    with pytest.raises(InputError):
        equivariant_homs(g, range(len(g)), torsion_module(CTX25))


def test_equivariant_homs_rejections_keep_their_messages():
    g = build_s3_quotient_group(5)
    kernel = reduction_kernel(g)
    torsion = torsion_module(g.ctx)
    with pytest.raises(ContractError, match="^subgroup indices are not closed$"):
        equivariant_homs(g, kernel - {max(kernel)}, torsion)
    with pytest.raises(InputError, match="^subgroup is not abelian$"):
        equivariant_homs(g, range(len(g)), torsion)
    with pytest.raises(InputError, match="^subgroup is not elementary abelian of exponent p$"):
        equivariant_homs(g, closure_indices(g, [g.index_of([[1, -3], [0, -1]])]), torsion)
    line = closure_indices(g, [min(kernel - {0})])
    with pytest.raises(ContractError, match="^subgroup is not normalized by the generators$"):
        equivariant_homs(g, line, torsion)


def test_equivariant_homs_abelian_test_matches_all_pairs():
    # Generators commuting pairwise is the same as all pairs commuting.
    g = build_borel_shared_group(5)
    rng = random.Random(8)
    for _ in range(40):
        sub = closure_indices(g, rng.sample(range(1, len(g)), 2))
        abelian = all(g.mult(a, b) == g.mult(b, a) for a in sub for b in sub)
        try:
            equivariant_homs(g, sub, torsion_module(g.ctx))
            rejected = False
        except (InputError, ContractError) as exc:
            rejected = str(exc) == "subgroup is not abelian"
        assert rejected == (not abelian)


def test_inflation_restriction_exactness_s3():
    g = build_s3_quotient_group(5)
    report = inflation_restriction_check(g)
    assert report.exact
    assert report.restriction_injective
    assert report.restriction_bijective_onto_invariants
    assert report.h1_quotient_order == 1
    assert report.h1_group_order == report.hom_space_order == 5


def test_witness_reports_on_nontrivial_families():
    for builder in (build_s3_quotient_group, build_cyclic_quotient_group):
        g = builder(5)
        mod = full_module(g.ctx)
        rep = h1_loc(g, mod)
        assert rep.order > 1
        assert rep.witness is not None
        system = CocycleSystem(g, mod)
        assert system.is_local_table(rep.witness)
        assert is_coboundary(g, mod, rep.witness) is None
        assert len(rep.classes()) == rep.order


def test_cocycle_from_coordinates_validates():
    g = close_group([[[2, 0], [0, 1]]], CTX25)
    system = CocycleSystem(g, full_module(CTX25))
    for row in system.z1().rows:
        c = system.expand(row.coords)
        assert verify_cocycle(c) and verify_cocycle(c, full=True)
    # The norm constraint forces the second generator coordinate to be
    # divisible by p here, so (0, 1) is not a cocycle assignment.
    assert not verify_cocycle(system.expand((0, 1)))


def test_report_serialization_shape():
    g = build_cyclic_quotient_group(5)
    rep = h1_loc(g, full_module(g.ctx))
    data = rep.to_json()
    assert set(data) == {"group_label", "module", "order", "invariant_factors", "witness"}
    assert data["module"] == "V"
    assert data["order"] == rep.order
    assert isinstance(data["witness"], list) and len(data["witness"]) == len(g)


def test_module_labels_and_validation():
    from h1loc import parse_module, InputError

    assert parse_module(CTX25, "V").kind == "full"
    assert parse_module(CTX25, "V[p]").kind == "p_torsion"
    assert parse_module(CTX25, "V/V[p]").kind == "mod_p_quotient"
    with pytest.raises(InputError):
        parse_module(CTX25, "W")
    with pytest.raises(InputError):
        GModule(ModulusContext(5, 1), "mod_p_quotient")


def _construction_groups(p):
    """Every construction group at p with its reduction-kernel quotient."""
    builders = [build_cyclic_quotient_group, build_borel_shared_group, build_borel_index2_group]
    if p % 3 == 2:
        builders.append(build_s3_quotient_group)
    groups = [b(p) for b in builders]
    groups += [build_borel_disjoint_group(p, variant=v) for v in ("canonical", "extra-diagonal")]
    out = []
    for g in groups:
        out.append((g, full_module(g.ctx)))
        out.append((quotient_group(g, reduction_kernel(g)), torsion_module(g.ctx)))
    return out


@pytest.mark.parametrize("p", [5, 7])
def test_per_edge_cocycle_check_matches_all_pairs(p):
    # Orders from 50 to 686, small and large groups alike.
    for group, module in _construction_groups(p):
        system = CocycleSystem(group, module)
        n = len(group)
        assert system.z1().rows
        for row in system.z1().rows:
            c = system.expand(row.coords)
            assert verify_cocycle(c) and verify_cocycle(c, full=True)
            for i in sorted({1, n // 2, n - 1}):
                vals = list(c.values)
                vals[i] = ((vals[i][0] + 1) % system.q, vals[i][1])
                broken = Cocycle(group, module, tuple(vals))
                assert not verify_cocycle(broken)
                assert not verify_cocycle(broken, full=True)
        # Generator values off Z^1, expanded along the breadth-first tree:
        # the identity holds on every tree edge and fails only off the tree.
        for j in range(system.dim):
            coords = [0] * system.dim
            coords[j] = 1
            if system.z1().contains(ModVector(system.cctx, tuple(coords))):
                continue
            off = system.expand(coords)
            assert not verify_cocycle(off)
            assert not verify_cocycle(off, full=True)


def _local_by_uncached_solves(group, module, c):
    """Per-element solve_linear with a fresh matrix each time: no cache."""
    q = module.coeff_modulus
    cctx = module.coeff_ctx
    for i in range(len(group)):
        a, b, cc, d = module.action_entries(group.matrix(i).entries)
        shifted = ModMatrix(cctx, 2, 2, ((a - 1) % q, b % q, cc % q, (d - 1) % q))
        if not solve_linear(shifted, ModVector(cctx, c.values[i])).solvable:
            return False
    return True


def _assert_local_test_matches_oracle(group, module, samples=12, seed=5):
    """Every class of H^1, then class representatives with the value at one
    random element replaced, which tests that element's entry."""
    system = CocycleSystem(group, module)
    classes = h1(group, module).classes()
    tables = list(classes)
    rng = random.Random(seed)
    q = system.q
    for _ in range(samples):
        vals = list(rng.choice(classes).values)
        vals[rng.randrange(1, len(group))] = (rng.randrange(q), rng.randrange(q))
        tables.append(Cocycle(group, module, tuple(vals)))
    verdicts = [system.is_local_table(c) for c in tables]
    assert verdicts == [_local_by_uncached_solves(group, module, c) for c in tables]
    return system, verdicts


def test_cached_local_test_matches_uncached_oracle_borel_shared():
    g = build_borel_shared_group(5)
    _, verdicts = _assert_local_test_matches_oracle(g, full_module(g.ctx))
    # H^1 = H^1_loc has order 5 here, so its 5 classes are all local.
    assert all(verdicts[:5]) and False in verdicts


@pytest.mark.parametrize("kind", ["full", "p_torsion", "mod_p_quotient"])
def test_cached_local_test_matches_uncached_oracle_over_z125(kind):
    ctx = ModulusContext(5, 3)
    g = close_group([[[1, 0], [0, -1]], [[6, 1], [10, 6]]], ctx)
    module = GModule(ctx, kind)
    system, verdicts = _assert_local_test_matches_oracle(g, module)
    assert True in verdicts and False in verdicts
    distinct = len({id(e) for e in system.local_entries()})
    if kind == "full":
        assert distinct == len(g)
    else:
        # The reduced actions repeat, so many elements share one entry.
        assert distinct * 10 <= len(g)


# ---------------------------------------------------------------------------
# Local conditions at representatives against the all-element stack.


def _all_element_local_basis(system):
    """The all-element oracle: the harvested constraints stacked with the
    annihilator rows of every element, each annihilator computed afresh as
    the kernel of (g - Id)^T."""
    q, cctx = system.q, system.cctx
    annihilators = {}
    rows = list(system.constraints)
    for (l0, l1), act in zip(system.L, system.acts):
        if act not in annihilators:
            a, b, c, d = act
            shifted_t = ModMatrix(cctx, 2, 2, ((a - 1) % q, c % q, b % q, (d - 1) % q))
            annihilators[act] = [k.coords for k in kernel_basis(shifted_t).rows]
        for k0, k1 in annihilators[act]:
            rows.append([(k0 * x + k1 * y) % q for x, y in zip(l0, l1)])
    return SubmoduleBasis.from_raw(cctx, system.dim, _kernel_raw(rows, system.dim, cctx))


Z9 = ModulusContext(3, 2)
Z125 = ModulusContext(5, 3)
Z125_GROUPS = {
    "z125": [[[1, 0], [0, -1]], [[6, 1], [10, 6]]],
    "z125-unipotent": [[[1, 1], [0, 1]], [[6, 0], [0, -4]]],
}


def _representative_cases(p):
    """Every construction group at p on V and V[p], and its reduction-kernel
    quotient on V[p]."""
    out = []
    for group, module in _construction_groups(p):
        out.append((group, module))
        if module.kind == "full":
            out.append((group, torsion_module(group.ctx)))
    return out


@pytest.mark.parametrize("p", [5, 7])
def test_representative_local_rows_match_all_elements_constructions(p):
    for group, module in _representative_cases(p):
        system = CocycleSystem(group, module)
        assert system.z1_local() == _all_element_local_basis(system)
        assert len(system.local_representatives) < len(group)


@pytest.mark.parametrize("name", sorted(Z125_GROUPS))
@pytest.mark.parametrize("kind", ["full", "p_torsion", "mod_p_quotient"])
def test_representative_local_rows_match_all_elements_over_z125(name, kind):
    group = close_group(Z125_GROUPS[name], Z125)
    system = CocycleSystem(group, GModule(Z125, kind))
    assert system.z1_local() == _all_element_local_basis(system)


def _max_cyclic_classes(group):
    """Conjugacy classes of maximal cyclic subgroups, by brute force: every
    element's cyclic subgroup as a set, and conjugation by every element."""
    n = len(group)
    cyclic = []
    for x in range(n):
        span, cur = {0}, x
        while cur != 0:
            span.add(cur)
            cur = group.mult(cur, x)
        cyclic.append(frozenset(span))
    subgroups = set(cyclic)
    maximal = {c for c in subgroups if not any(c < d for d in subgroups)}
    classes = []
    for c in sorted(maximal, key=min):
        x = next(y for y in c if cyclic[y] == c)
        orbit = frozenset(cyclic[group.mult(group.mult(h, x), group.inv(h))] for h in range(n))
        if orbit not in classes:
            classes.append(orbit)
    return cyclic, classes


@pytest.mark.parametrize("source", ["p=5", "p=7", "z125"])
def test_local_representatives_are_one_per_conjugacy_class(source):
    if source == "z125":
        cases = [(close_group(gens, Z125), full_module(Z125)) for gens in Z125_GROUPS.values()]
    else:
        cases = _construction_groups(int(source[2:]))
    for group, module in cases:
        cyclic, classes = _max_cyclic_classes(group)
        reps = CocycleSystem(group, module).local_representatives
        assert len(reps) == len(classes)
        assert sorted(next(i for i, cls in enumerate(classes) if cyclic[x] in cls) for x in reps) == list(
            range(len(classes))
        )


def test_local_representative_counts():
    g = build_borel_shared_group(11)
    assert len(CocycleSystem(g, full_module(g.ctx)).local_representatives) == 7
    u = close_group(Z125_GROUPS["z125-unipotent"], Z125)
    assert len(u) == 3125
    assert len(CocycleSystem(u, full_module(Z125)).local_representatives) == 10


def test_harvest_basis_is_shared():
    g = build_borel_shared_group(5)
    system = CocycleSystem(g, full_module(g.ctx))
    assert system.z1() == SubmoduleBasis.from_raw(
        system.cctx, system.dim, _kernel_raw(system.constraints, system.dim, system.cctx)
    )
    assert system.constraint_basis == _howell_raw(system.constraints, system.dim, system.cctx)


GROUP_CAP = 120


@st.composite
def _small_groups(draw):
    """A group over Z/9 or Z/25 from one or two generators, with at most
    GROUP_CAP elements.  A second generator is a unit of Z/q[g], an element
    of the reduction kernel, or over Z/9 any invertible matrix or, with an
    upper triangular first one, another upper triangular matrix mod p."""
    p = draw(st.sampled_from([3, 5]))
    ctx = ModulusContext(p, 2)
    q = ctx.modulus
    entry = st.integers(0, q - 1)
    kinds = (["borel", "any"] if p == 3 else []) + ["kernel", "commuting", "cyclic"]
    kind = draw(st.sampled_from(kinds))

    def matrix(lower=entry):
        return draw(st.tuples(entry, entry, lower, entry).filter(lambda m: (m[0] * m[3] - m[1] * m[2]) % p))

    if kind == "borel":
        lower = st.integers(0, p - 1).map(lambda c: c * p)
        gens = [matrix(lower), matrix(lower)]
    else:
        gens = [matrix()]
    g1 = gens[0]
    if kind == "commuting":
        a, b = draw(entry), draw(entry)
        gens.append(tuple((b * e + (a if i in (0, 3) else 0)) % q for i, e in enumerate(g1)))
    elif kind == "kernel":
        n = draw(st.tuples(*[st.integers(0, p - 1)] * 4))
        gens.append(tuple(((1 if i in (0, 3) else 0) + p * e) % q for i, e in enumerate(n)))
    elif kind == "any":
        gens.append(matrix())
    assume(all((m[0] * m[3] - m[1] * m[2]) % p for m in gens))
    try:
        group = close_group([ModMatrix(ctx, 2, 2, m) for m in gens], ctx, cap=GROUP_CAP)
    except ResourceLimitError:
        assume(False)
    return group, GModule(ctx, draw(st.sampled_from(["full", "p_torsion", "mod_p_quotient"])))


@settings(derandomize=True, deadline=None, database=None, max_examples=100,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_small_groups())
@example((close_group([[[1, 3], [6, 4]], [[7, 3], [6, 7]]], Z9), full_module(Z9)))  # H^1_loc of order 9
@example((close_group([[[1, 8], [3, 4]], [[7, 8], [3, 7]]], Z9), full_module(Z9)))  # |G| = 27, order 9
def test_h1_loc_matches_brute_force_on_random_groups(case):
    group, module = case
    system = CocycleSystem(group, module)
    full = h1(group, module)
    local_classes = brute_local_tables(group, module, {c.values for c in full.classes()})
    report = h1_loc(group, module)
    assert report.order == len(local_classes)
    # Every basis row of Z^1_loc is local by brute force; with the order,
    # that makes the local span exactly the brute-force local cocycles.
    rows = {system.expand(r.coords).values for r in system.z1_local().rows}
    assert brute_local_tables(group, module, rows) == rows


# ---------------------------------------------------------------------------
# The cross-check's membership test.


def test_admits_matches_solver_for_every_matrix_mod_9():
    ctx = ModulusContext(3, 2)
    pairs = [(x, y) for x in range(9) for y in range(9)]
    vectors = [ModVector(ctx, v) for v in pairs]
    for entries in itertools.product(range(9), repeat=4):
        entry = LocalEntry(ModMatrix(ctx, 2, 2, entries))
        a, b, c, d = entries
        image = {((a * x + b * y) % 9, (c * x + d * y) % 9) for x, y in pairs}
        solver = LinearSolver(entry.shifted)
        for v, mv in zip(pairs, vectors):
            admitted = entry.admits(v)
            assert admitted == solver.solve(mv).solvable
            assert admitted == (v in image)


@pytest.mark.parametrize("p, n", [(5, 2), (5, 3), (3, 3), (7, 3), (7, 4)])
def test_admits_matches_solver_on_random_matrices(p, n):
    ctx = ModulusContext(p, n)
    q = ctx.modulus
    rng = random.Random(q)
    hits = 0
    for _ in range(3000):
        # Entries with a random valuation, so that singular matrices are common.
        entries = tuple(rng.randrange(q) * p ** rng.randrange(n + 1) % q for _ in range(4))
        entry = LocalEntry(ModMatrix(ctx, 2, 2, entries))
        a, b, c, d = entries
        x, y = rng.randrange(q), rng.randrange(q)
        for v in (((a * x + b * y) % q, (c * x + d * y) % q), (rng.randrange(q), rng.randrange(q))):
            admitted = entry.admits(v)
            assert admitted == LinearSolver(entry.shifted).solve(ModVector(ctx, v)).solvable
            hits += admitted
    assert 3000 < hits < 6000


def test_admits_recheck_catches_a_corrupted_solver():
    ctx = ModulusContext(5, 2)
    entry = LocalEntry(ModMatrix(ctx, 2, 2, (5, 1, 10, 5)))
    assert entry.admits((1, 5))
    # Corrupt the coefficients of the first column-span row: the reduction
    # still succeeds, so only the re-check against (g - Id) x = v can tell.
    col, piv, left, coeffs = entry.span[0]
    entry.span[0] = (col, piv, left, tuple((c + 1) % 25 for c in coeffs))
    with pytest.raises(ConsistencyError):
        entry.admits((1, 5))


def _check_column_span2(ctx, entries):
    """column_span2 against the Howell form of the transpose, with every
    row's coefficients producing it."""
    q = ctx.modulus
    m = ModMatrix(ctx, 2, 2, entries)
    span = column_span2(m)
    assert [list(v) for _, _, v, _ in span] == [list(r.coords) for r in image_basis(m).rows]
    a, b, c, d = entries
    for col, piv, (v0, v1), (x0, x1) in span:
        assert ((a * x0 + b * x1) % q, (c * x0 + d * x1) % q) == (v0, v1)
        assert (v0, v1)[col] == piv and (col == 1) == (v0 == 0)


def test_column_span2_is_the_howell_basis_for_every_matrix_mod_9():
    ctx = ModulusContext(3, 2)
    for entries in itertools.product(range(9), repeat=4):
        _check_column_span2(ctx, entries)


@pytest.mark.parametrize("p, n", [(3, 3), (5, 3), (7, 3), (7, 4)])
def test_column_span2_is_the_howell_basis_on_random_matrices(p, n):
    ctx = ModulusContext(p, n)
    q = ctx.modulus
    rng = random.Random(1000 + q)
    for _ in range(2000):
        _check_column_span2(ctx, tuple(rng.randrange(q) * p ** rng.randrange(n + 1) % q for _ in range(4)))


@pytest.mark.parametrize("source", ["p=5", "p=7", "z125"])
def test_edge_targets_match_mult(source):
    if source == "z125":
        groups = [close_group(gens, Z125) for gens in Z125_GROUPS.values()]
    else:
        groups = [group for group, _ in _construction_groups(int(source[2:]))]
    for group in groups:
        gens = cohomology._gen_indices(group)
        targets = group.edge_targets()
        assert len(targets) == len(gens)
        for g, tg in zip(gens, targets):
            assert list(tg) == [group.mult(a, g) for a in range(len(group))]


def test_edge_targets_skip_repeated_and_identity_generators():
    ctx = ModulusContext(5, 2)
    x, y = [[1, 1], [0, 1]], [[6, 0], [0, 1]]
    group = close_group([x, [[1, 0], [0, 1]], y, x], ctx)
    assert group.distinct_generator_indices() == [group.index_of(x), group.index_of(y)]
    for g, tg in zip(group.distinct_generator_indices(), group.edge_targets()):
        assert list(tg) == [group.mult(a, g) for a in range(len(group))]


# ---------------------------------------------------------------------------
# Whether the cross-check ran, and the work cap of the cocycle system.


def test_cross_check_ran_is_recorded():
    g = build_borel_shared_group(5)
    rep = h1_loc(g, full_module(g.ctx))
    assert rep.cross_check == f"ran: 5 classes x {len(g)} elements"
    assert "cross_check" not in rep.to_json()
    assert h1(g, full_module(g.ctx)).cross_check is None


def test_cross_check_skips_are_recorded(monkeypatch):
    g = build_borel_shared_group(5)
    mod = full_module(g.ctx)
    assert h1_loc(g, mod, cross_check=False).cross_check == "skipped: not requested"
    monkeypatch.setattr(cohomology, "CLASS_ENUM_WORK_LIMIT", 1000)
    assert h1_loc(g, mod).cross_check == f"skipped: work {5 * len(g)} > cap 1000"
    monkeypatch.setattr(cohomology, "CLASS_ENUM_LIMIT", 4)
    assert h1_loc(g, mod).cross_check == "skipped: 5 classes > cap 4"


def test_system_work_cap(monkeypatch):
    g = build_borel_shared_group(5)
    work = 6 * len(g)  # three distinct generators, so dim = 6
    monkeypatch.setattr(cohomology, "SYSTEM_WORK_LIMIT", work - 1)
    with pytest.raises(ResourceLimitError, match=f"cocycle system: .*= {work} exceeds the cap of {work - 1}$"):
        CocycleSystem(g, full_module(g.ctx))
    monkeypatch.setattr(cohomology, "SYSTEM_WORK_LIMIT", work)
    CocycleSystem(g, full_module(g.ctx))
