"""The cocycle engine against brute force, examples, and its own axioms."""

import copy
import itertools
import random
import time
import tracemalloc
from array import array

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from h1loc import (
    Cocycle,
    CocycleSystem,
    ConsistencyError,
    ContractError,
    DimensionError,
    FiniteMatrixGroup,
    GModule,
    InputError,
    ModulusContext,
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
    parse_module,
    quotient_group,
    reduction_kernel,
    restrict_cocycle,
    ResourceLimitError,
    SubmoduleBasis,
    torsion_module,
    verify_all,
    verify_cocycle,
)
from h1loc import cohomology, constructions
from h1loc.constructions import (
    borel_shared_generators,
    borel_shared_witness,
    build_borel_disjoint_group,
    build_borel_index2_group,
    build_borel_shared_group,
    build_cyclic_quotient_group,
    build_s3_quotient_group,
    cyclic_generators,
    report_cyclic_quotient,
    s3_generators,
)
from h1loc.groups import _inv4, _rows
from h1loc.zmod import _howell_raw, _kernel_raw, howell_from_rows, quotient_structure, solve2
from conftest import (
    assert_h1_loc_is_the_local_classes,
    basis_class_forms,
    brute_coboundary_tables,
    brute_cocycle_tables,
    brute_local_tables,
    construction_groups,
    engine_tables,
    enumerate_span,
    full_harvest,
    inflation_restriction_oracle,
    least_valuation_solve2,
    reference_solve,
    report_classes,
    subgroup_from_indices,
    verify_cocycle_all_pairs,
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
    assert h1_loc(g, mod).order == 1


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
            s, t = rng.randrange(25), rng.randrange(25)
            lv, bv = rng.choice(local_vecs), rng.choice(b_vecs)
            c = system.expand([s * x + t * y for x, y in zip(lv, bv)])
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
        samples = list(z1_rows)
        for _ in range(6):
            mix = [0] * system.dim
            for row in z1_rows:
                c = rng.randrange(25)
                mix = [(a + c * b) % 25 for a, b in zip(mix, row)]
            samples.append(tuple(mix))
        for coords in samples:
            c = system.expand(coords)
            by_elements = system.is_local_table(c)
            by_restriction = True
            for idx in range(len(g)):
                sub = close_group([_rows(g._keys[idx])], g.ctx)
                restricted = restrict_cocycle(c, sub)
                if is_coboundary(restricted) is None:
                    by_restriction = False
                    break
            assert by_elements == by_restriction


def test_is_coboundary_cases():
    g = close_group(cyclic_generators(5), CTX25)
    mod = full_module(CTX25)
    system = CocycleSystem(g, mod)
    zero = system.expand([0] * system.dim)
    m = is_coboundary(zero)
    assert m == (0, 0)
    for row in system.b1().rows:
        c = system.expand(row)
        assert is_coboundary(c) is not None
    # The cocycle carries its module: a V[p]-valued coboundary is decided,
    # and solved, over F_p.
    tor = CocycleSystem(g, torsion_module(CTX25))
    for row in tor.b1().rows:
        m = is_coboundary(tor.expand(row))
        assert m is not None and all(0 <= x < 5 for x in m)


def _coboundary_by_reference(c):
    """Whether some m has c(g) = (g - 1) m at every element: reference_solve
    on the stack of g - Id over all of c's group."""
    module = c.module
    rows, rhs = [], []
    for key, value in zip(c.group._keys, c.values):
        a, b, cc, d = module.action_entries(key)
        rows += [[a - 1, b], [cc, d - 1]]
        rhs += value
    return reference_solve(module.coeff_ctx, rows, rhs)[0] is not None


@pytest.mark.parametrize("case", ["borel-shared-V", "z125-V", "z125-V[p]", "z125-V/V[p]"])
def test_is_coboundary_matches_the_all_element_reference(case):
    label, kind = case.rsplit("-", 1)
    if label == "borel-shared":
        g = build_borel_shared_group(5)
    else:
        g = close_group(Z125_GROUPS["z125"], Z125)
    module = parse_module(g.ctx, kind)
    q = module.coeff_modulus
    rng = random.Random(case)
    # A cocycle outside B^1: the h1_loc witness, or on V[p] and V/V[p], where
    # H^1_loc = 0, the first generator of H^1.
    witness = h1_loc(g, module).witness or CocycleSystem(g, module).expand(h1(g, module).generators[0])
    m = (rng.randrange(q), rng.randrange(q))
    delta = Cocycle(g, module, tuple(
        (((a - 1) * m[0] + b * m[1]) % q, (c * m[0] + (d - 1) * m[1]) % q)
        for a, b, c, d in map(module.action_entries, g._keys)))
    tables = [delta, witness]
    for base in (delta, witness):
        vals = list(base.values)
        i = rng.randrange(1, len(g))
        vals[i] = ((vals[i][0] + 1) % q, vals[i][1])
        tables.append(Cocycle(g, module, tuple(vals)))
    verdicts = []
    for table in tables:
        found = is_coboundary(table)
        assert (found is not None) == _coboundary_by_reference(table)
        if found is not None:
            m0, m1 = found
            for (a, b, c, d), value in zip(map(module.action_entries, g._keys), table.values):
                assert (((a - 1) * m0 + b * m1) % q, (c * m0 + (d - 1) * m1) % q) == value
        verdicts.append(found is not None)
    assert verdicts == [True, False, False, False]


def test_restriction_of_coboundary_is_coboundary():
    g = build_borel_shared_group(5)
    mod = full_module(g.ctx)
    system = CocycleSystem(g, mod)
    b_row = system.b1().rows[0]
    c = system.expand(b_row)
    kernel = reduction_kernel(g)
    sub = subgroup_from_indices(g, kernel)
    restricted = restrict_cocycle(c, sub)
    assert is_coboundary(restricted) is not None


def test_restriction_to_identity_is_zero():
    g = build_borel_shared_group(5)
    w = borel_shared_witness(g).witness
    trivial = close_group([[[1, 0], [0, 1]]], g.ctx)
    restricted = restrict_cocycle(w, trivial)
    assert restricted.is_zero()


def test_inflation_cases():
    g = build_borel_shared_group(5)
    kernel = reduction_kernel(g)
    q = quotient_group(g)
    zero = Cocycle(q, full_module(q.ctx), tuple((0, 0) for _ in range(len(q))))
    lifted = inflate_cocycle(g, zero)
    assert lifted.is_zero()
    assert lifted.group is g and lifted.module == torsion_module(g.ctx)

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
    assert system.z1().contains(system.compress(bundle.inflated))


def test_inflation_rejects_cocycles_off_the_image():
    # Inflation takes an F_p^2-valued cocycle on the mod-p image of the group.
    g = build_borel_shared_group(5)
    q = quotient_group(g)
    table = borel_shared_witness(g).class_table
    assert inflate_cocycle(g, table) == borel_shared_witness(g).inflated
    on_group = Cocycle(g, torsion_module(g.ctx), tuple((0, 0) for _ in range(len(g))))
    with pytest.raises(ContractError, match="^inflation takes a cocycle with values in F_p\\^2$"):
        inflate_cocycle(g, on_group)  # on g itself, not on its image
    other = build_borel_index2_group(5)
    with pytest.raises(ContractError, match="^the given group is larger than the mod-p image$"):
        inflate_cocycle(other, table)  # on the image of a larger group
    q_other = quotient_group(build_cyclic_quotient_group(5))
    zero_other = Cocycle(q_other, full_module(q_other.ctx), tuple((0, 0) for _ in range(len(q_other))))
    with pytest.raises(ContractError, match="^an element reduces outside the given group$"):
        inflate_cocycle(g, zero_other)  # on another group's image
    z = ModulusContext(5, 2)
    with pytest.raises(ContractError, match="^inflation takes a cocycle with values in F_p\\^2$"):
        inflate_cocycle(g, Cocycle(q, full_module(z), table.values))  # values over Z/25


def test_inflation_rechecks_the_cocycle_identity():
    # The class table with its reflection value zeroed is no cocycle, and
    # neither is its pull-back.
    g = build_borel_shared_group(5)
    table = borel_shared_witness(g).class_table
    broken = list(table.values)
    broken[table.group.index_of([[1, 0], [0, -1]])] = (0, 0)
    with pytest.raises(ContractError, match="^inflated table fails the cocycle identity$"):
        inflate_cocycle(g, table._replace(values=tuple(broken)))


def test_only_a_torsion_valued_cocycle_pushes_into_the_full_module():
    g = build_borel_shared_group(5)
    inflated = borel_shared_witness(g).inflated
    pushed = inflated.to_full_module()
    assert pushed.module == full_module(g.ctx)
    assert pushed.values == tuple((5 * a % 25, 5 * b % 25) for a, b in inflated.values)
    with pytest.raises(ContractError, match="^only the p-torsion module embeds by scaling$"):
        pushed.to_full_module()


def test_a_system_refuses_a_module_over_another_ring():
    g = build_borel_shared_group(5)
    with pytest.raises(DimensionError, match="^module coefficients do not match the group ring$"):
        CocycleSystem(g, full_module(ModulusContext(5, 3)))


def test_quotient_h1_examples():
    s3 = build_s3_quotient_group(5)
    q = quotient_group(s3)
    assert h1(q, full_module(q.ctx)).order == 1

    disjoint = build_borel_disjoint_group(5)
    qd = quotient_group(disjoint)
    assert h1(qd, full_module(qd.ctx)).order == 1


def test_h1_on_dihedral_quotient_of_shared_family():
    g = build_borel_shared_group(5)
    q = quotient_group(g)
    rep = h1(q, full_module(q.ctx))
    assert rep.order == 5


# H^1 and H^1_loc of G/G(p) on V[p] as the coset quotient G/G(p) gave them,
# before the quotient became the mod-p image: label -> ((order, invariant
# factors) of H^1, order of H^1_loc), at p = 5 and at p = 7.
COSET_QUOTIENT_H1 = {
    5: {
        "s3-quotient": ((1, ()), 1),
        "cyclic-quotient": ((1, ()), 1),
        "borel-shared": ((5, (5,)), 1),
        "borel-shared-index2": ((5, (5,)), 1),
        "borel-disjoint[canonical]": ((1, ()), 1),
        "borel-disjoint[extra-diagonal]": ((1, ()), 1),
    },
    7: {
        "s3-quotient": ((1, ()), 1),
        "cyclic-quotient": ((1, ()), 1),
        "borel-shared": ((7, (7,)), 1),
        "borel-shared-index2": ((7, (7,)), 1),
        "borel-disjoint[canonical]": ((1, ()), 1),
        "borel-disjoint[extra-diagonal]": ((1, ()), 1),
    },
}


@pytest.mark.parametrize("p", [5, 7])
def test_h1_on_the_image_matches_the_coset_quotient(p):
    for g in construction_groups(p):
        (order, factors), loc_order = COSET_QUOTIENT_H1[p][g.label]
        image = quotient_group(g)
        rep = h1(image, full_module(image.ctx))
        assert (rep.order, rep.invariant_factors) == (order, factors), g.label
        assert h1_loc(image, full_module(image.ctx)).order == loc_order, g.label


def _multiples(p, base):
    return frozenset(tuple(k * x % p for x in base) for k in range(p))


# inflation_restriction_check as it was on the coset quotient: label ->
# (h1_group_order, h1_quotient_order, hom_space_order, the class form whose
# multiples are both ker(res) and im(inf), exact, restriction_injective,
# restriction_bijective_onto_invariants).  The two bases are compared by the
# class forms of their elements.
INFLATION_RESTRICTION = {
    5: {
        "s3-quotient": (5, 1, 5, (0,) * 8, True, True, True),
        "cyclic-quotient": (25, 1, 25, (0,) * 6, True, True, True),
        "borel-shared": (25, 5, 5, (0, 0, 1, 2, 0, 0), True, False, False),
        "borel-shared-index2": (25, 5, 25, (0, 1, 0, 0), True, False, False),
        "borel-disjoint[canonical]": (1, 1, 5, (0,) * 4, True, True, False),
    },
    7: {
        "cyclic-quotient": (49, 1, 49, (0,) * 6, True, True, True),
        "borel-shared": (49, 7, 7, (0, 0, 1, 2, 0, 0), True, False, False),
        "borel-shared-index2": (49, 7, 49, (0, 1, 0, 0), True, False, False),
        "borel-disjoint[canonical]": (1, 1, 7, (0,) * 4, True, True, False),
    },
}


@pytest.mark.parametrize("p", [5, 7])
def test_inflation_restriction_matches_the_coset_quotient(p):
    builders = [build_cyclic_quotient_group, build_borel_shared_group, build_borel_index2_group,
                build_borel_disjoint_group]
    if p % 3 == 2:
        builders.insert(0, build_s3_quotient_group)
    for build in builders:
        g = build(p)
        h1g, h1q, hom, base, exact, injective, bijective = INFLATION_RESTRICTION[p][g.label]
        system = CocycleSystem(g, torsion_module(g.ctx))
        fields = inflation_restriction_check(g)._asdict()
        for name in ("kernel_of_restriction", "image_of_inflation"):
            fields[name] = basis_class_forms(system, fields[name])
        assert fields == dict(
            h1_group_order=h1g,
            h1_quotient_order=h1q,
            hom_space_order=hom,
            kernel_of_restriction=_multiples(p, base),
            image_of_inflation=_multiples(p, base),
            exact=exact,
            restriction_injective=injective,
            restriction_bijective_onto_invariants=bijective,
        ), g.label
        assert fields == inflation_restriction_oracle(g), g.label


def test_equivariant_homs_trivial_action():
    # The kernel itself with inner conjugation: both actions are trivial,
    # so every linear map is equivariant and injective ones exist.
    ctx = CTX25
    g = close_group([[[1, 5], [0, 1]], [[6, 0], [0, 21]]], ctx)
    assert len(g) == 25
    hom = equivariant_homs(g, range(len(g)))
    assert hom.dimension == 4
    assert hom.injective_exists


def test_equivariant_homs_cyclic_family(monkeypatch):
    # The check reads the one hom with h01 -> (1, 0) and h10 -> 0 off a
    # solve; the oracle searches every hom of the span for it, with each
    # element's coordinates found by products of powers of the basis.
    for p in (5, 7, 11, 13):
        g = build_cyclic_quotient_group(p)
        hom = equivariant_homs(g, reduction_kernel(g))
        coords = _oracle_coordinates(g, hom.h_basis)
        h01 = g.index_of([[1, p], [0, 1]])
        h10 = g.index_of([[1 + p, 0], [0, 1 - p]])

        def check(space):
            monkeypatch.setattr(constructions, "equivariant_homs", lambda group, sub: space)
            (passed,) = [c.passed for c in report_cyclic_quotient(p).checks
                         if c.name == "explicit_equivariant_hom_exists"]
            return passed

        def search(space):
            dh = len(space.h_basis)
            return any(_hom_value(p, (v[:dh], v[dh:]), coords[h01]) == (1, 0)
                       and _hom_value(p, (v[:dh], v[dh:]), coords[h10]) == (0, 0)
                       for v in enumerate_span(space.maps))

        assert check(hom) is search(hom) is True, p
        # Planted faults: the zero space; the coordinates of h01 and h10
        # swapped, under which h10 -> (1, 0) is not equivariant; and h10
        # given the coordinates of h01, which no hom can tell apart.
        zero = hom._replace(maps=howell_from_rows(hom.maps.ctx, hom.maps.ambient_dim, []))
        assert check(zero) is search(zero) is False, p
        c01, c10 = coords[h01], coords[h10]
        swapped = hom._replace(coordinates={**hom.coordinates, h01: hom.coordinates[h10], h10: hom.coordinates[h01]})
        coords[h01], coords[h10] = c10, c01
        assert check(swapped) is search(swapped) is False, p
        collapsed = hom._replace(coordinates={**hom.coordinates, h10: hom.coordinates[h01]})
        coords[h01], coords[h10] = c01, c01
        assert check(collapsed) is search(collapsed) is False, p


def _span_has_injective_oracle(basis):
    """Whether some hom of the span, two rows joined, has independent
    columns: no nonzero combination of its columns vanishes."""
    p, dh = basis.ctx.p, basis.ambient_dim // 2
    combos = [c for c in itertools.product(range(p), repeat=dh) if any(c)]
    return any(all(_hom_value(p, (v[:dh], v[dh:]), c) != (0, 0) for c in combos) for v in enumerate_span(basis))


@pytest.mark.parametrize("p", [5, 7])
def test_injective_homs_are_decided_by_the_basis_and_pairwise_sums(p):
    ctx = ModulusContext(p, 1)
    # Neither basis map is injective but their sum is; a span of rank-one
    # maps; a nonzero dim-1 map; two rows never inject three columns.
    planted = [(4, [[1, 0, 0, 0], [0, 0, 0, 1]]), (4, [[1, 0, 0, 0], [0, 1, 0, 0]]), (2, [[0, 3]]),
               (6, [[1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 0, 1]])]
    rng = random.Random(p)
    for _ in range(150):
        dh = rng.choice([1, 2, 2, 2])
        rows = [[rng.randrange(p) for _ in range(2 * dh)] for _ in range(rng.randrange(1, 2 * dh + 1))]
        if rng.random() < 0.5:  # rank-one maps u v^T, so the span may hold no injective map
            rows = [[a * b for a in (u0, u1) for b in v] for u0, u1, *v in
                    ([rng.randrange(p) for _ in range(2 + dh)] for _ in rows)]
        planted.append((2 * dh, rows))
    outcomes = set()
    for width, rows in planted:
        basis = howell_from_rows(ctx, width, rows)
        got = constructions._span_has_injective(basis)
        assert got == _span_has_injective_oracle(basis), rows
        outcomes.add((width, bool(basis.rows), got))
    assert {(4, True, True), (4, True, False), (2, True, True), (6, True, False)} <= outcomes


def test_equivariant_homs_s3_injective():
    g = build_s3_quotient_group(5)
    hom = equivariant_homs(g, reduction_kernel(g))
    assert hom.injective_exists


def _oracle_coordinates(g, h_basis):
    """Every element of the span of h_basis with its coordinates, built
    from products of powers of h_basis."""
    coords = {}
    for combo in itertools.product(range(g.ctx.p), repeat=len(h_basis)):
        cur = 0
        for c, b in zip(combo, h_basis):
            for _ in range(c):
                cur = g.mult(cur, b)
        coords[cur] = combo
    return coords


def _hom_value(p, phi, cs):
    """The value of the hom phi, two rows, at coordinates cs."""
    return tuple(sum(e * c for e, c in zip(row, cs)) % p for row in phi)


def _equivariant_hom_oracle(g, sub, h_basis):
    """Every 2 x dh matrix phi over F_p, against h_basis, with
    phi(x h x^-1) = (x mod p) phi(h) for every x in g and h in sub, checked
    by group multiplication; phi is extended to sub additively.  Returns
    the maps and each element's coordinates (_oracle_coordinates)."""
    p = g.ctx.p
    dh = len(h_basis)
    coords = _oracle_coordinates(g, h_basis)
    assert set(coords) == set(sub) and len(coords) == p**dh

    def value(phi, cs):
        return _hom_value(p, phi, cs)

    # (x mod p, coordinates of x h x^-1, coordinates of h) for every pair.
    pairs = []
    for x in range(len(g)):
        xi = g.inv(x)
        key = tuple(e % p for e in g._keys[x])
        pairs += [(key, coords[g.mult(g.mult(x, h), xi)], coords[h]) for h in sub]
    maps = set()
    for flat in itertools.product(range(p), repeat=2 * dh):
        phi = (flat[:dh], flat[dh:])
        if all(value(phi, conj) == ((a * v0 + b * v1) % p, (c * v0 + d * v1) % p)
               for (a, b, c, d), conj, cs in pairs for v0, v1 in [value(phi, cs)]):
            maps.add(phi)
    return maps, coords, value


@pytest.mark.parametrize("case", ["trivial-action", "cyclic-quotient", "s3-quotient", "borel-shared"])
def test_equivariant_homs_match_a_brute_force_oracle(case):
    if case == "trivial-action":
        g = close_group([[[1, 5], [0, 1]], [[6, 0], [0, 21]]], CTX25)
        sub = frozenset(range(len(g)))
    else:
        build = {"cyclic-quotient": build_cyclic_quotient_group, "s3-quotient": build_s3_quotient_group,
                 "borel-shared": build_borel_shared_group}[case]
        g = build(5)
        sub = reduction_kernel(g)
    hom = equivariant_homs(g, sub)
    oracle, coords, value = _equivariant_hom_oracle(g, sub, hom.h_basis)
    dh = len(hom.h_basis)
    maps = [(v[:dh], v[dh:]) for v in enumerate_span(hom.maps)]
    assert len(maps) == 5**hom.dimension == len(set(maps))
    assert set(maps) == oracle
    assert hom.coordinates == coords
    injective = any(all(any(value(phi, cs)) for h, cs in coords.items() if h != 0) for phi in oracle)
    assert hom.injective_exists == injective


def test_equivariant_homs_on_the_trivial_subgroup():
    hom = equivariant_homs(build_cyclic_quotient_group(5), [0])
    assert hom.dimension == 0 and not hom.injective_exists
    assert list(enumerate_span(hom.maps)) == [()]


def test_equivariant_homs_rejects_non_elementary():
    g = close_group([[[1, 1], [0, 1]]], CTX25)  # order 25, cyclic
    from h1loc import InputError

    with pytest.raises(InputError):
        equivariant_homs(g, range(len(g)))


def test_equivariant_homs_rejections_keep_their_messages():
    g = build_s3_quotient_group(5)
    kernel = reduction_kernel(g)
    with pytest.raises(ContractError, match="^subgroup indices are not closed$"):
        equivariant_homs(g, kernel - {max(kernel)})
    with pytest.raises(InputError, match="^subgroup is not abelian$"):
        equivariant_homs(g, range(len(g)))
    with pytest.raises(InputError, match="^subgroup is not elementary abelian of exponent p$"):
        equivariant_homs(g, closure_indices(g, [g.index_of([[1, -3], [0, -1]])]))
    line = closure_indices(g, [min(kernel - {0})])
    with pytest.raises(ContractError, match="^subgroup is not normalized by the generators$"):
        equivariant_homs(g, line)


def test_equivariant_homs_rechecks_that_its_basis_spans_the_subgroup(monkeypatch):
    # A basis one element short spans p of the p^2 kernel elements.
    g = build_s3_quotient_group(5)
    kernel = reduction_kernel(g)
    generators = FiniteMatrixGroup.subgroup_generators
    monkeypatch.setattr(FiniteMatrixGroup, "subgroup_generators", lambda self, sub: generators(self, sub)[:-1])
    with pytest.raises(ConsistencyError, match="^subgroup enumeration and basis span disagree$"):
        equivariant_homs(g, kernel)


def test_equivariant_homs_abelian_test_matches_all_pairs():
    # Generators commuting pairwise is the same as all pairs commuting.
    g = build_borel_shared_group(5)
    rng = random.Random(8)
    for _ in range(40):
        sub = closure_indices(g, rng.sample(range(1, len(g)), 2))
        abelian = all(g.mult(a, b) == g.mult(b, a) for a in sub for b in sub)
        try:
            equivariant_homs(g, sub)
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
    # Both subgroups of H^1 are zero, so both bases are B^1's.
    b1 = CocycleSystem(g, torsion_module(g.ctx)).b1()
    assert report.kernel_of_restriction == report.image_of_inflation == b1


def test_witness_reports_on_nontrivial_families():
    for builder in (build_s3_quotient_group, build_cyclic_quotient_group):
        g = builder(5)
        mod = full_module(g.ctx)
        rep = h1_loc(g, mod)
        assert rep.order > 1
        assert rep.witness is not None
        system = CocycleSystem(g, mod)
        assert system.is_local_table(rep.witness)
        assert is_coboundary(rep.witness) is None
        assert len(report_classes(system, rep)) == rep.order


def test_cocycle_from_coordinates_validates():
    g = close_group([[[2, 0], [0, 1]]], CTX25)
    system = CocycleSystem(g, full_module(CTX25))
    for row in system.z1().rows:
        c = system.expand(row)
        assert verify_cocycle(c) and verify_cocycle_all_pairs(c)
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
    # The coefficient ring is built once per module, not on every access.
    ctx = ModulusContext(5, 3)
    tor = GModule(ctx, "p_torsion")
    assert tor.coeff_ctx is tor.coeff_ctx and tor.coeff_ctx == ModulusContext(5, 1)
    assert GModule(ctx, "mod_p_quotient").coeff_ctx == ModulusContext(5, 2)
    assert GModule(ctx, "full").coeff_ctx is ctx
    assert tor == GModule(ctx, "p_torsion") and hash(tor) == hash(GModule(ctx, "p_torsion"))


def _construction_groups(p):
    """Every construction group at p on V, and its quotient by the
    reduction kernel, the mod-p image, on F_p^2."""
    builders = [build_cyclic_quotient_group, build_borel_shared_group, build_borel_index2_group]
    if p % 3 == 2:
        builders.append(build_s3_quotient_group)
    groups = [b(p) for b in builders]
    groups += [build_borel_disjoint_group(p, variant=v) for v in ("canonical", "extra-diagonal")]
    out = []
    for g in groups:
        out.append((g, full_module(g.ctx)))
        image = quotient_group(g)
        out.append((image, full_module(image.ctx)))
    return out


@pytest.mark.parametrize("p", [5, 7])
def test_per_edge_cocycle_check_matches_all_pairs(p):
    # Orders from 50 to 686, small and large groups alike.
    for group, module in _construction_groups(p):
        system = CocycleSystem(group, module)
        n = len(group)
        assert system.z1().rows
        for row in system.z1().rows:
            c = system.expand(row)
            assert verify_cocycle(c) and verify_cocycle_all_pairs(c)
            for i in sorted({1, n // 2, n - 1}):
                vals = list(c.values)
                vals[i] = ((vals[i][0] + 1) % system.q, vals[i][1])
                broken = Cocycle(group, module, tuple(vals))
                assert not verify_cocycle(broken)
                assert not verify_cocycle_all_pairs(broken)
        # Generator values off Z^1, expanded along the breadth-first tree:
        # the identity holds on every tree edge and fails only off the tree.
        for j in range(system.dim):
            coords = [0] * system.dim
            coords[j] = 1
            if system.z1().contains(coords):
                continue
            off = system.expand(coords)
            assert not verify_cocycle(off)
            assert not verify_cocycle_all_pairs(off)


def _local_by_uncached_solves(group, module, c):
    """Per-element reference_solve with a fresh matrix each time."""
    q = module.coeff_modulus
    cctx = module.coeff_ctx
    for i in range(len(group)):
        a, b, cc, d = module.action_entries(group._keys[i])
        shifted = [[(a - 1) % q, b % q], [cc % q, (d - 1) % q]]
        if reference_solve(cctx, shifted, c.values[i])[0] is None:
            return False
    return True


def _assert_local_test_matches_oracle(group, module, samples=12, seed=5):
    """Every class of H^1, then class representatives with the value at one
    random element replaced, which tests that element's span."""
    system = CocycleSystem(group, module)
    classes = report_classes(system, system.h1())
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
    # Every element acts differently on V, while on V[p] and V/V[p] the
    # reduced actions repeat: the test covers both.
    distinct = len(set(system.acts))
    if kind == "full":
        assert distinct == len(g)
    else:
        assert distinct * 10 <= len(g)


# ---------------------------------------------------------------------------
# Local conditions at representatives against the all-element stack.


def _all_element_local_basis(system):
    """The all-element oracle: the full harvest's constraints stacked with the
    annihilator rows of every element, each annihilator computed afresh as
    the kernel of (g - Id)^T."""
    q, cctx = system.q, system.cctx
    annihilators = {}
    rows, table = full_harvest(system)
    for (l0, l1), act in zip(table, system.acts):
        if act not in annihilators:
            a, b, c, d = act
            shifted_t = [[(a - 1) % q, c % q], [b % q, (d - 1) % q]]
            annihilators[act] = kernel_basis(cctx, 2, shifted_t).rows
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
    """Every construction group at p on V and V[p], and its mod-p image on
    F_p^2."""
    out = []
    for group, module in _construction_groups(p):
        out.append((group, module))
        if group.ctx.n > 1:
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
    rows, _ = full_harvest(system)
    assert system.z1() == SubmoduleBasis.from_raw(system.cctx, system.dim, _kernel_raw(rows, system.dim, system.cctx))
    assert system.constraint_basis == _howell_raw(rows, system.dim, system.cctx)
    assert system.constraint_basis == _howell_raw(system.constraints, system.dim, system.cctx)


# ---------------------------------------------------------------------------
# The tests' class enumeration, conftest.report_classes, which expands
# coordinate combinations, against scale-and-add on whole value tables.


def _scale_and_add_classes(system, report):
    """Every class representative's table built from whole tables: zero
    plus coeff * gen for each nonzero digit, in itertools.product order."""
    q = system.q
    reps = []
    for combo in itertools.product(*(range(d) for d in report.invariant_factors)):
        vals = ((0, 0),) * len(system.group)
        for coeff, vec in zip(combo, report.generators):
            gen = system.expand(vec)
            if coeff:
                vals = tuple(((a0 + coeff * b0) % q, (a1 + coeff * b1) % q)
                             for (a0, a1), (b0, b1) in zip(vals, gen.values))
        reps.append(vals)
    return reps


def _assert_classes_match(system, report):
    classes = report_classes(system, report)
    assert [c.values for c in classes] == _scale_and_add_classes(system, report)
    assert len(classes) == report.order and classes[0].is_zero()


def test_classes_match_scale_and_add_constructions():
    for group, module in _representative_cases(5):
        system = CocycleSystem(group, module)
        _assert_classes_match(system, system.h1())
        report = system.h1_loc()
        assert list(report.invariant_factors) == [d for d, _ in quotient_structure(system.z1_local(), system.b1())]
        _assert_classes_match(system, report)


@pytest.mark.parametrize("name", sorted(Z125_GROUPS))
@pytest.mark.parametrize("kind", ["full", "p_torsion", "mod_p_quotient"])
def test_classes_match_scale_and_add_over_z125(name, kind):
    system = CocycleSystem(close_group(Z125_GROUPS[name], Z125), GModule(Z125, kind))
    _assert_classes_match(system, system.h1())


def test_classes_carry_over_mixed_invariant_factors():
    """Digits of different ranges, so that the product order and the
    coordinate sums are tested with unequal factors."""
    g = build_borel_shared_group(5)
    system = CocycleSystem(g, full_module(g.ctx))
    gens = system.z1().rows[:3]
    assert len(gens) == 3
    report = system.h1()._replace(order=24, invariant_factors=(3, 4, 2), generators=gens)
    _assert_classes_match(system, report)


# ---------------------------------------------------------------------------
# The lazy harvest against the full harvest.


def _assert_lazy_harvest_matches_full(system):
    """The lazy harvest's basis is the full harvest's, row for row; its rows
    are a few of the full harvest's; value_map agrees with the full table."""
    rows, table = full_harvest(system)
    assert system.constraint_basis == _howell_raw(rows, system.dim, system.cctx)
    assert len(system.constraints) <= 2 * system.cctx.n * system.dim
    full_rows = {tuple(r) for r in rows}
    assert all(tuple(r) in full_rows for r in system.constraints)
    for i in system._L:
        assert system.value_map(i) == table[i]


@pytest.mark.parametrize("p", [5, 7])
def test_lazy_harvest_matches_full_harvest_constructions(p):
    for group, module in _representative_cases(p):
        _assert_lazy_harvest_matches_full(CocycleSystem(group, module))


@pytest.mark.parametrize("name", sorted(Z125_GROUPS))
@pytest.mark.parametrize("kind", ["full", "p_torsion", "mod_p_quotient"])
def test_lazy_harvest_matches_full_harvest_over_z125(name, kind):
    group = close_group(Z125_GROUPS[name], Z125)
    _assert_lazy_harvest_matches_full(CocycleSystem(group, GModule(Z125, kind)))


def test_value_map_matches_full_table_at_every_element():
    group = close_group(Z125_GROUPS["z125"], Z125)
    system = CocycleSystem(group, full_module(Z125))
    _, table = full_harvest(system)
    assert [system.value_map(i) for i in range(len(group))] == table


def test_harvest_raises_when_a_broken_edge_gives_no_cut(monkeypatch):
    """A check that reports an edge whose rows are zero (a tree edge) would
    make no progress; the harvest must raise, not loop."""
    g = build_borel_shared_group(5)
    system = CocycleSystem(g, full_module(g.ctx))
    last = len(g) - 1
    tree_edge = (*divmod(g._first[last], system.k), last)
    assert not any(map(any, system.edge_rows(*tree_edge)))
    monkeypatch.setattr(cohomology, "_walk", lambda acts, targets, q, u: (tree_edge, None))
    start = time.perf_counter()
    with pytest.raises(ConsistencyError, match="vanish on the cocycle candidate"):
        system.z1()
    assert time.perf_counter() - start < 1.0


def test_harvest_gives_up_after_the_round_cap(monkeypatch):
    """With a sound kernel each round shrinks K, so the round cap is never
    reached; a kernel routine that stopped shrinking K would loop, and the
    cap turns that into ConsistencyError."""
    g = build_borel_shared_group(5)
    system = CocycleSystem(g, full_module(g.ctx))
    whole_space = lambda rows, ncols, ctx: [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    monkeypatch.setattr(cohomology, "_kernel_raw", whole_space)
    start = time.perf_counter()
    with pytest.raises(ConsistencyError, match=f"did not settle in {2 * system.dim + 1} rounds"):
        system.z1()
    assert time.perf_counter() - start < 1.0


def test_lazy_harvest_is_small_and_final_round_is_z1():
    g = build_borel_shared_group(11)
    system = CocycleSystem(g, full_module(g.ctx))
    assert system.constraints == []
    z1 = system.z1()
    assert 0 < len(system.constraints) <= 2 * system.cctx.n * system.dim
    assert all(verify_cocycle(system.expand(r)) for r in z1.rows)
    assert z1 == SubmoduleBasis.from_raw(
        system.cctx, system.dim, _kernel_raw(system.constraint_basis, system.dim, system.cctx)
    )


# ---------------------------------------------------------------------------
# The fail-fast walk against expand and verify_cocycle.


def _first_broken_in_walk_order(system, u):
    """The walk's oracle, read off expand(u): the first Cayley edge
    (a, slot, a g_slot) that breaks the cocycle identity, with a in
    breadth-first order and the slots of each a in order, or None."""
    table = system.expand(u).values
    q = system.q
    for a in range(len(system.group)):
        m0, m1, m2, m3 = system.module.action_entries(system.group._keys[a])
        v0, v1 = table[a]
        for slot, tg in enumerate(system.targets):
            g0, g1 = u[2 * slot] % q, u[2 * slot + 1] % q
            if table[tg[a]] != ((v0 + m0 * g0 + m1 * g1) % q, (v1 + m2 * g0 + m3 * g1) % q):
                return a, slot, tg[a]
    return None


def _assert_walk_matches_expand(system, seed, extra=6):
    """On the rows of Z^1, random combinations of them, those plus a
    random nudge of one coordinate, and random vectors: the walk passes
    exactly when verify_cocycle(expand(u)) does, a passing walk's table is
    expand(u).values, and a broken walk names the first broken edge in its
    own order, whose consistency rows do not vanish on u."""
    rng = random.Random(seed)
    q, dim = system.q, system.dim
    rows = system.z1().rows

    def combo():
        return [sum(rng.randrange(q) * r[i] for r in rows) % q for i in range(dim)]

    vectors = list(rows)
    for _ in range(extra):
        vectors.append(combo())
        nudged = combo()
        nudged[rng.randrange(dim)] += rng.randrange(1, q)
        vectors.append(nudged)
        vectors.append([rng.randrange(q) for _ in range(dim)])
    verdicts = set()
    for u in vectors:
        edge, values = cohomology._walk(system.acts, system.targets, system.q, u)
        expanded = system.expand(u)
        assert (edge is None) == verify_cocycle(expanded)
        assert edge == _first_broken_in_walk_order(system, u)
        if edge is None:
            assert tuple(values) == expanded.values
        else:
            assert values is None
            assert any(sum(x * y for x, y in zip(row, u)) % q for row in system.edge_rows(*edge))
        verdicts.add(edge is None)
    # Random vectors break unless every vector is a cocycle's coordinates.
    assert verdicts == {True, False} if system.z1().span_size() < q**dim else {True}


@pytest.mark.parametrize("p", [5, 7])
def test_walk_matches_expand_constructions(p):
    for i, (group, module) in enumerate(_representative_cases(p)):
        _assert_walk_matches_expand(CocycleSystem(group, module), seed=100 * p + i)


@pytest.mark.parametrize("name", sorted(Z125_GROUPS))
@pytest.mark.parametrize("kind", ["full", "p_torsion", "mod_p_quotient"])
def test_walk_matches_expand_over_z125(name, kind):
    group = close_group(Z125_GROUPS[name], Z125)
    _assert_walk_matches_expand(CocycleSystem(group, GModule(Z125, kind)), seed=len(name + kind), extra=3)


def _module_cases(group):
    """The group's V and V[p], and V/V[p] when n > 1."""
    kinds = ["full", "p_torsion"] + (["mod_p_quotient"] if group.ctx.n > 1 else [])
    return [GModule(group.ctx, kind) for kind in kinds]


def _assert_report_generators_walk_clean(system):
    """The report checks each generator's membership in Z^1 and holds its
    coordinates; the walk, which checks the cocycle identity on every
    Cayley edge, stays the oracle: each generator of H^1 and H^1_loc is
    quotient_structure's, walks clean, and its walk table is expand's."""
    for big, report in ((system.z1(), system.h1()), (system.z1_local(), system.h1_loc())):
        structure = quotient_structure(big, system.b1())
        assert report.generators == tuple(vec for _, vec in structure)
        for vec in report.generators:
            edge, values = cohomology._walk(system.acts, system.targets, system.q, vec)
            assert edge is None
            assert tuple(values) == system.expand(vec).values


@pytest.mark.parametrize("p", [5, 7])
def test_report_generators_walk_clean_constructions(p):
    for group, _ in _construction_groups(p):
        for module in _module_cases(group):
            _assert_report_generators_walk_clean(CocycleSystem(group, module))


@pytest.mark.parametrize("name", sorted(Z125_GROUPS))
def test_report_generators_walk_clean_over_z125(name):
    group = close_group(Z125_GROUPS[name], Z125)
    for module in _module_cases(group):
        _assert_report_generators_walk_clean(CocycleSystem(group, module))


def test_report_rejects_a_generator_outside_z1():
    """Fed the whole coordinate space in place of Z^1, the report meets a
    representative that is no cocycle's coordinates, and raises instead
    of expanding it."""
    g = build_borel_shared_group(5)
    system = CocycleSystem(g, full_module(g.ctx))
    assert system.z1().span_size() < system.q**system.dim
    with pytest.raises(ConsistencyError, match="outside Z\\^1"):
        system._report(kernel_basis(system.cctx, system.dim, []))


def _harvest_visits(system, monkeypatch):
    """The elements each walk of system's harvest visits: all of G for a
    walk that passes, up to the broken edge's source for one that breaks."""
    visits = []
    walk = cohomology._walk

    def counted(acts, targets, q, u):
        edge, values = walk(acts, targets, q, u)
        visits.append(len(acts) if edge is None else edge[0] + 1)
        return edge, values

    with monkeypatch.context() as m:
        m.setattr(cohomology, "_walk", counted)
        system.z1()
    return visits


def test_harvest_walks_the_whole_group_once_at_p17(monkeypatch):
    """On borel-shared p=17 (|G| = 9826, rank B^1 = 2, rank Z^1 = 3) the
    seeded harvest makes one full walk, the row of K that passes, and stays
    within 1.2 |G| (9,854 visits in 3 walks; 15,951 in 6 before the seed
    rows and the kept clean walks, when one walk broke at element 6,087;
    35,603 when the verifying round walked every row of Z^1 but the
    last)."""
    g = build_borel_shared_group(17)
    visits = _harvest_visits(CocycleSystem(g, full_module(g.ctx)), monkeypatch)
    assert visits.count(len(g)) == 1
    assert sum(visits) <= 1.2 * len(g)


@pytest.mark.parametrize("source", ["borel-shared p=11", "z125-unipotent"])
def test_harvest_makes_one_long_walk(source, monkeypatch):
    """On V, exactly one walk of the harvest goes past |G|/5: the seed rows
    cut K before any walk, so the walks that break do so near the root
    (borel-shared p=11 walked [2, 4, 7, 1420, 24, 2662] elements without
    them, and z125-unipotent [26, 34, 2625, 3125])."""
    if source == "z125-unipotent":
        g = close_group(Z125_GROUPS["z125-unipotent"], Z125)
    else:
        g = build_borel_shared_group(11)
    visits = _harvest_visits(CocycleSystem(g, full_module(g.ctx)), monkeypatch)
    assert sum(v > len(g) / 5 for v in visits) == 1


def test_h1_expands_no_cocycle(monkeypatch):
    """h1 reports generator coordinates and prints no table, so it expands
    nothing; h1_loc expands its witness."""
    calls = []
    expand = CocycleSystem.expand
    monkeypatch.setattr(CocycleSystem, "expand", lambda self, coords: calls.append(coords) or expand(self, coords))
    g = build_borel_shared_group(5)
    report = h1(g, full_module(g.ctx))
    assert report.order == 5 and calls == []
    assert h1_loc(g, full_module(g.ctx)).witness is not None and calls


# ---------------------------------------------------------------------------
# The verifying round modulo B^1 against the all-rows round.


def _all_rows_harvest(system):
    """The verifying round that ignores B^1, the oracle of the harvest: each
    round walks the probe, then every row of K but the last (the probe
    minus the others).  Returns (constraint basis, Z^1) from its own rows."""
    dim, cctx, q = system.dim, system.cctx, system.q
    rows = []
    for _ in range(cctx.n * dim + 1):
        basis = _howell_raw(rows, dim, cctx)
        kern = _kernel_raw(basis, dim, cctx) if dim else []
        for u in [[sum(col) % q for col in zip(*kern)]] + kern[:-1] if kern else []:
            edge = cohomology._walk(system.acts, system.targets, system.q, u)[0]
            if edge is not None:
                break
        else:
            return basis, SubmoduleBasis.from_raw(cctx, dim, kern)
        rows.extend(row for row in system.edge_rows(*edge) if any(row))
    raise AssertionError("the all-rows harvest did not settle")


def _harvest_cases(source):
    """The construction groups at p on V and V[p] and their mod-p images,
    or both Z/125 groups on V, V[p] and V/V[p]."""
    if source == "z125":
        return [(close_group(gens, Z125), GModule(Z125, kind))
                for gens in Z125_GROUPS.values() for kind in ("full", "p_torsion", "mod_p_quotient")]
    return _representative_cases(int(source[2:]))


@pytest.mark.parametrize("source", ["p=5", "p=7", "z125"])
def test_harvest_round_matches_the_all_rows_round(source, monkeypatch):
    """The harvest gives the all-rows round's constraint basis and Z^1;
    every row of B^1 walks clean; no vector is walked that B^1 and the
    vectors that walked clean before it, in any round, already span; and
    those vectors span Z^1 together with B^1.  Some system needs two clean
    walks, so a harvest that kept only the probe would fail.  Each walked
    vector is a row of the round's K, the kernel of the rows harvested
    when it is walked: the harvest walks no probe."""
    clean_walks = []
    for group, module in _harvest_cases(source):
        system = CocycleSystem(group, module)
        walked = []
        walk = cohomology._walk

        def spy(acts, targets, q, u):
            kern = _kernel_raw(system.constraints, system.dim, system.cctx)
            edge, values = walk(acts, targets, q, u)
            walked.append((list(u), edge, kern))
            return edge, values

        with monkeypatch.context() as m:
            m.setattr(cohomology, "_walk", spy)
            z1 = system.z1()
        assert all(u in kern for u, _, kern in walked)
        assert (system.constraint_basis, z1) == _all_rows_harvest(system)
        b1 = system.b1()
        assert all(cohomology._walk(system.acts, system.targets, system.q, r)[0] is None for r in b1.rows)
        clean = []
        for u, edge, _ in walked:
            assert not howell_from_rows(system.cctx, system.dim, list(b1.rows) + clean).contains(u)
            if edge is None:
                clean.append(u)
        assert howell_from_rows(system.cctx, system.dim, list(b1.rows) + clean) == z1
        clean_walks.append(len(clean))
    assert max(clean_walks) >= 2


def test_harvest_rejects_a_coboundary_row_outside_k(monkeypatch):
    """b1() no longer checks B^1 against Z^1; the harvest does, once K is
    final.  A B^1 with a row outside Z^1 that the harvest's K excludes
    raises."""
    g = build_borel_shared_group(5)
    system = CocycleSystem(g, full_module(g.ctx))
    z1, b1 = CocycleSystem(g, full_module(g.ctx)).z1(), system.b1()
    outside = [int(j == 1) for j in range(system.dim)]
    assert not z1.contains(outside)
    bad = howell_from_rows(system.cctx, system.dim, list(b1.rows) + [outside])
    monkeypatch.setattr(CocycleSystem, "b1", lambda self: bad)
    with pytest.raises(ConsistencyError, match="coboundaries must be cocycles"):
        system.z1()


def test_cocycle_system_memory_is_small():
    """The tracemalloc peak of building the system and Z^1 on borel-shared
    p=17 (|G| = 9826): 2.7 MiB with the lazy harvest, 14.7 MiB with the
    full one (which kept a 2 x dim table per element and 39,164 rows)."""
    g = build_borel_shared_group(17)
    tracemalloc.start()
    try:
        CocycleSystem(g, full_module(g.ctx)).z1()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
        group = close_group([_rows(m) for m in gens], ctx, cap=GROUP_CAP)
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
    local_classes = brute_local_tables(group, module, {c.values for c in report_classes(system, full)})
    report = assert_h1_loc_is_the_local_classes(group, module)
    assert report.order == len(local_classes)
    rows, _ = full_harvest(system)
    assert system.constraint_basis == _howell_raw(rows, system.dim, system.cctx)
    # Every basis row of Z^1_loc is local by brute force; with the order,
    # that makes the local span exactly the brute-force local cocycles.
    rows = {system.expand(r).values for r in system.z1_local().rows}
    assert brute_local_tables(group, module, rows) == rows


# ---------------------------------------------------------------------------
# The cross-check's membership test.


def _checked_solve2(ctx, entries, v):
    """solve2's verdict, after checking that an x it returns solves m x = v."""
    q = ctx.modulus
    a, b, c, d = entries
    x = solve2(ctx, entries, v)
    if x is not None:
        assert ((a * x[0] + b * x[1]) % q, (c * x[0] + d * x[1]) % q) == v
    return x is not None


def test_admits_matches_solver_for_every_matrix_mod_9():
    # Every (m, v) against the brute-force image; the reference solver sees
    # a ninth of the pairs of each matrix, every pair over nine matrices.
    ctx = ModulusContext(3, 2)
    pairs = [(x, y) for x in range(9) for y in range(9)]
    for k, entries in enumerate(itertools.product(range(9), repeat=4)):
        a, b, c, d = entries
        image = {((a * x + b * y) % 9, (c * x + d * y) % 9) for x, y in pairs}
        for v in pairs:
            assert _checked_solve2(ctx, entries, v) == (v in image)
        matrix = [[a, b], [c, d]]
        for v in pairs[k % 9 :: 9]:
            assert (reference_solve(ctx, matrix, v)[0] is not None) == (v in image)


@pytest.mark.parametrize("p, n", [(5, 2), (5, 3), (3, 3), (7, 3), (7, 4), (23, 2)])
def test_admits_matches_solver_on_random_matrices(p, n):
    """solve2's verdict against the reference solver, and its x against the
    least-valuation pivot it had before the unit-pivot shortcut.  Every
    other system has entries of random valuation, so p-divisible entries
    and singular matrices are common; the rest are uniform, and mostly
    take the shortcut."""
    ctx = ModulusContext(p, n)
    q = ctx.modulus
    rng = random.Random(q)
    hits = 0
    for k in range(3000):
        scale = [p ** rng.randrange(n + 1) if k % 2 else 1 for _ in range(4)]
        entries = tuple(rng.randrange(q) * s % q for s in scale)
        a, b, c, d = entries
        x, y = rng.randrange(q), rng.randrange(q)
        for v in (((a * x + b * y) % q, (c * x + d * y) % q), (rng.randrange(q), rng.randrange(q))):
            admitted = _checked_solve2(ctx, entries, v)
            assert admitted == (reference_solve(ctx, [[a, b], [c, d]], v)[0] is not None)
            assert solve2(ctx, entries, v) == least_valuation_solve2(ctx, entries, v)
            hits += admitted
    assert 3000 < hits < 6000


def test_admits_recheck_catches_a_corrupted_solver(monkeypatch):
    ctx = ModulusContext(5, 2)
    m = (5, 1, 10, 5)
    assert solve2(ctx, m, (1, 5)) is not None
    # A wrong unit inverse leaves the valuations, and so the verdict, as
    # they were: only the re-check against m x = v can tell.
    monkeypatch.setattr(ModulusContext, "unit_inverse", lambda self, u: (pow(u, -1, self.modulus) + 1) % self.modulus)
    with pytest.raises(ConsistencyError, match="2x2 solve fails the re-check m x = b"):
        solve2(ctx, m, (1, 5))


@pytest.mark.parametrize("source", ["p=5", "p=7", "z125"])
def test_edge_targets_match_mult(source):
    if source == "z125":
        groups = [close_group(gens, Z125) for gens in Z125_GROUPS.values()]
    else:
        groups = [group for group, _ in _construction_groups(int(source[2:]))]
    for group in groups:
        gens = group.generators
        targets = group.edge_targets()
        assert len(targets) == len(gens)
        for g, tg in zip(gens, targets):
            assert list(tg) == [group.mult(a, g) for a in range(len(group))]


_X, _Y = [[1, 1], [0, 1]], [[6, 0], [0, 1]]


def _repeated_generator_group():
    """<x, Id, y, x> over Z/25: a repeated and an identity generator."""
    return close_group([_X, [[1, 0], [0, 1]], _Y, _X], ModulusContext(5, 2))


def test_edge_targets_skip_repeated_and_identity_generators():
    group = _repeated_generator_group()
    assert group.generators == (group.index_of(_X), group.index_of(_Y))
    assert len(group._right) == 2 * len(group)
    for g, tg in zip(group.generators, group.edge_targets()):
        assert list(tg) == [group.mult(a, g) for a in range(len(group))]


def _bfs_tree(group):
    """The oracle of the tree read off the closure: a breadth-first pass over
    the distinct generators' edge targets, as (parent, slot, order)."""
    n = len(group)
    parent, slot, order = [-1] * n, [0] * n, [0]
    parent[0] = 0
    for x in order:
        for s, tg in enumerate(group.edge_targets()):
            y = tg[x]
            if parent[y] < 0:
                order.append(y)
                parent[y], slot[y] = x, s
    return parent, slot, order


@pytest.mark.parametrize("source", ["p=5", "p=7", "z125", "repeated"])
def test_spanning_tree_is_the_breadth_first_tree(source):
    """The construction groups and their mod-p images, the Z/125 groups and
    the repeated-and-identity-generator group: the tree edge the system
    reads for element i, divmod(group._first[i], k), is the breadth-first
    pass's, which visits the elements in index order."""
    if source == "z125":
        groups = [close_group(gens, Z125) for gens in Z125_GROUPS.values()]
    elif source == "repeated":
        groups = [_repeated_generator_group()]
    else:
        groups = [group for group, _ in _construction_groups(int(source[2:]))]
    for group in groups:
        parent, slot, order = _bfs_tree(group)
        k = len(group.generators)
        assert order == list(range(len(group)))
        assert [divmod(group._first[i], k) for i in range(1, len(group))] == list(zip(parent, slot))[1:]


def _snapshot(group):
    """A group's attributes, with a copy of each mutable table."""
    return {name: copy.copy(value) if isinstance(value, (list, dict, array)) else value
            for name, value in vars(group).items()}


def test_a_closed_group_is_final(monkeypatch):
    """Nothing adds to a group once it is closed: h1, h1_loc, inv() and
    mult() leave its attributes as the closure made them, and so do the
    reports of verify_all([5]) on every group they close.  inv() agrees
    with _inv4 at every element."""
    cases = [(build_borel_shared_group(5), "full")]
    cases += [(close_group(Z125_GROUPS["z125"], Z125), kind) for kind in ("full", "p_torsion", "mod_p_quotient")]
    for group, kind in cases:
        before = _snapshot(group)
        h1(group, GModule(group.ctx, kind))
        h1_loc(group, GModule(group.ctx, kind))
        q = group._q
        assert [group._keys[group.inv(i)] for i in range(len(group))] == [_inv4(k, q) for k in group._keys]
        assert all(group.mult(i, group.inv(i)) == 0 for i in range(len(group)))
        assert vars(group) == before
    closed = []
    init = FiniteMatrixGroup.__init__

    def recording_init(self, *args):
        init(self, *args)
        closed.append((self, _snapshot(self)))

    monkeypatch.setattr(FiniteMatrixGroup, "__init__", recording_init)
    reports = verify_all([5])
    assert all(r.status == "passed" for r in reports)
    assert len(closed) > len(reports)
    for group, before in closed:
        assert vars(group) == before, group.label


# ---------------------------------------------------------------------------
# The cross-check on generators and socle lines: what it ran, S = M against
# the class-enumeration oracle, and the two mutations it must catch.


def test_cross_check_ran_is_recorded():
    g = build_borel_shared_group(5)
    rep = h1_loc(g, full_module(g.ctx))
    # H^1 = H^1_loc = Z/5: its one generator is the witness, and H^1/H^1_loc
    # has no socle.
    assert rep.cross_check == f"ran: 1 generators + 0 socle lines x {len(g)} elements"
    assert "cross_check" not in rep.to_json()
    assert h1(g, full_module(g.ctx)).cross_check is None
    # On V[p], H^1 = (5, 5) and H^1_loc = 0: 6 lines instead of 24 classes.
    rep = h1_loc(g, torsion_module(g.ctx))
    assert rep.cross_check == f"ran: 0 generators + 6 socle lines x {len(g)} elements"


def test_cross_check_skips_are_recorded(monkeypatch):
    g = build_borel_shared_group(5)
    mod = full_module(g.ctx)
    # The cap bounds (generators + socle lines) x elements: 1 x |G| on V.
    monkeypatch.setattr(cohomology, "CLASS_ENUM_WORK_LIMIT", len(g) - 1)
    assert h1_loc(g, mod).cross_check == f"skipped: work {len(g)} > cap {len(g) - 1}"
    monkeypatch.setattr(cohomology, "CLASS_ENUM_WORK_LIMIT", len(g))
    assert h1_loc(g, mod).cross_check.startswith("ran: ")
    # 6 x |G| on V[p].
    work = 6 * len(g)
    monkeypatch.setattr(cohomology, "CLASS_ENUM_WORK_LIMIT", work - 1)
    assert h1_loc(g, torsion_module(g.ctx)).cross_check == f"skipped: work {work} > cap {work - 1}"
    monkeypatch.setattr(cohomology, "CLASS_ENUM_WORK_LIMIT", work)
    assert h1_loc(g, torsion_module(g.ctx)).cross_check.startswith("ran: ")


@pytest.mark.parametrize("kind, factors, tables",
                         [("full", (5,), 1), ("p_torsion", (5, 5), 6), ("mod_p_quotient", (5, 5), 6)])
def test_cross_check_tests_each_generator_and_socle_line_once(kind, factors, tables, monkeypatch):
    # On Z/125, H^1_loc = 0 and H^1 = (5) on V and (5, 5) on V[p] and V/V[p]:
    # one table per socle line, and none per class.
    group = close_group(Z125_GROUPS["z125-unipotent"], Z125)
    calls = []
    local = CocycleSystem.is_local_table
    monkeypatch.setattr(CocycleSystem, "is_local_table", lambda self, c: calls.append(c) or local(self, c))
    report = h1_loc(group, GModule(Z125, kind))
    assert report.order == 1 and h1(group, GModule(Z125, kind)).invariant_factors == factors
    assert len(calls) == tables


@pytest.mark.parametrize("p", [5, 7])
def test_h1_loc_is_the_enumerated_local_classes_constructions(p):
    for group in construction_groups(p):
        for module in (full_module(group.ctx), torsion_module(group.ctx)):
            assert_h1_loc_is_the_local_classes(group, module)
        image = quotient_group(group)
        assert_h1_loc_is_the_local_classes(image, full_module(image.ctx))


@pytest.mark.parametrize("name", sorted(Z125_GROUPS))
@pytest.mark.parametrize("kind", ["full", "p_torsion", "mod_p_quotient"])
def test_h1_loc_is_the_enumerated_local_classes_over_z125(name, kind):
    assert_h1_loc_is_the_local_classes(close_group(Z125_GROUPS[name], Z125), GModule(Z125, kind))


def test_cross_check_catches_a_dropped_local_representative(monkeypatch):
    # Without its third local representative the main path answers (3, 3)
    # on this group of order 162, though only a subgroup of order 3 is local
    # at every element (M > S).  The witness is still local and the second
    # generator is not, so step (a) catches it.
    group = close_group([[[1, 3], [4, 5]], [[3, 2], [7, 5]]], Z9)
    module = full_module(Z9)
    assert h1_loc(group, module).invariant_factors == (3,)
    reps = CocycleSystem.local_representatives.func
    monkeypatch.setattr(CocycleSystem, "local_representatives", property(lambda self: reps(self)[:2] + reps(self)[3:]))
    system = CocycleSystem(group, module)
    assert [d for d, _ in quotient_structure(system.z1_local(), system.b1())] == [3, 3]
    with pytest.raises(ConsistencyError, match="a generator of the local cohomology fails the local conditions"):
        system.h1_loc()


def test_cross_check_catches_a_spurious_local_row(monkeypatch):
    # A row that kills every coboundary but not the class of H^1 = H^1_loc
    # = Z/5 shrinks the main path's answer to 0 (M < S); the one socle line
    # of H^1/M is local at every element, so step (b) catches it.
    g = build_borel_shared_group(5)
    module = full_module(g.ctx)
    system = CocycleSystem(g, module)
    q = system.q
    b1 = system.b1()
    spurious = next(row for row in kernel_basis(b1.ctx, b1.ambient_dim, b1.rows).rows
                    if any(sum(a * b for a, b in zip(row, z)) % q for z in system.z1().rows))
    rows = CocycleSystem.local_constraint_rows
    monkeypatch.setattr(CocycleSystem, "local_constraint_rows", lambda self: rows(self) + [spurious])
    assert quotient_structure(system.z1_local(), system.b1()) == []
    with pytest.raises(ConsistencyError, match="a class outside the computed local cohomology is local"):
        system.h1_loc()


def test_z1_local_catches_a_local_row_that_fails_on_a_coboundary(monkeypatch):
    # A local row that does not vanish on B^1: the unit row at a coordinate
    # where a coboundary is nonzero cuts that coboundary out of Z^1_loc.
    g = build_borel_shared_group(5)
    system = CocycleSystem(g, full_module(g.ctx))
    spurious = [int(j == 1) for j in range(system.dim)]
    assert system.b1().rows[0][1]
    rows = CocycleSystem.local_constraint_rows
    monkeypatch.setattr(CocycleSystem, "local_constraint_rows", lambda self: rows(self) + [spurious])
    with pytest.raises(ConsistencyError, match="coboundaries satisfy the local conditions by definition"):
        system.z1_local()


def test_h1_loc_catches_a_witness_that_is_not_local(monkeypatch):
    # On V[p] of borel-shared p=5, H^1 = (5, 5) and H^1_loc = 0.  With no
    # local representative the main path answers H^1, whose first generator
    # is then the witness, and no nonzero class is local.
    g = build_borel_shared_group(5)
    module = torsion_module(g.ctx)
    assert h1_loc(g, module).order == 1 and h1(g, module).invariant_factors == (5, 5)
    monkeypatch.setattr(CocycleSystem, "local_representatives", property(lambda self: []))
    with pytest.raises(ConsistencyError, match="local cohomology witness fails the local conditions"):
        CocycleSystem(g, module).h1_loc()


def test_h1_loc_catches_a_witness_that_is_a_coboundary(monkeypatch):
    # A quotient_structure that names a coboundary as the generator of the
    # cyclic factor: it lies in Z^1 and is local, so only the coboundary
    # test on the witness can tell.
    g = build_borel_shared_group(5)
    module = full_module(g.ctx)
    monkeypatch.setattr(cohomology, "quotient_structure", lambda big, small: [(5, small.rows[0])])
    with pytest.raises(ConsistencyError, match="local cohomology witness is a coboundary"):
        CocycleSystem(g, module).h1_loc()


def test_system_work_cap(monkeypatch):
    g = build_borel_shared_group(5)
    work = 6 * len(g)  # three distinct generators, so dim = 6
    monkeypatch.setattr(cohomology, "SYSTEM_WORK_LIMIT", work - 1)
    with pytest.raises(ResourceLimitError, match=f"cocycle system: .*= {work} exceeds the cap of {work - 1}$"):
        CocycleSystem(g, full_module(g.ctx))
    monkeypatch.setattr(cohomology, "SYSTEM_WORK_LIMIT", work)
    CocycleSystem(g, full_module(g.ctx))
