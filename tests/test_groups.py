"""Group enumeration, structure queries, and the power identity."""

import itertools
import random
import tracemalloc

import pytest
import sympy

from h1loc import (
    InputError,
    ModMatrix,
    ModulusContext,
    ModVector,
    ResourceLimitError,
    borel_check,
    close_group,
    closure_indices,
    eigen_data,
    element_order,
    fixed_submodule,
    group_from_json,
    group_to_json,
    power_identity_check,
    quotient_group,
    reduction_kernel,
    subgroup_from_indices,
)
from h1loc.constructions import (
    borel_shared_generators,
    build_borel_disjoint_group,
    build_borel_index2_group,
    build_borel_shared_group,
    build_cyclic_quotient_group,
    build_s3_quotient_group,
    s3_generators,
)
from h1loc.groups import _inv4, _pow4, _powers4
from conftest import oracle_power, oracle_product

CTX25 = ModulusContext(5, 2)


def test_close_group_identity_only():
    g = close_group([[[1, 0], [0, 1]]], CTX25)
    assert len(g) == 1
    assert g.matrix(0) == ModMatrix.identity(CTX25, 2)


def test_close_group_order_three():
    # Characteristic polynomial x^2 + x + 1 divides x^3 - 1 over any ring.
    g = close_group([[[1, -3], [1, -2]]], CTX25)
    assert len(g) == 3


def test_close_group_borel_shared_family():
    g = close_group(borel_shared_generators(5), CTX25)
    assert len(g) == 250


def test_close_group_rejects_singular_generator():
    with pytest.raises(InputError):
        close_group([[[5, 0], [0, 1]]], CTX25)


def test_close_group_cap():
    with pytest.raises(ResourceLimitError) as exc:
        close_group(borel_shared_generators(5), CTX25, cap=10)
    assert "10" in str(exc.value)


def test_closure_determinism():
    gens = s3_generators(5)
    a = close_group(gens, CTX25)
    b = close_group(gens, CTX25)
    assert [a.matrix(i) for i in range(len(a))] == [b.matrix(i) for i in range(len(b))]
    assert [a.word(i) for i in range(len(a))] == [b.word(i) for i in range(len(b))]


def test_element_orders():
    g = close_group([[[1, -3], [0, -1]]], CTX25)
    assert element_order(g.matrix(0)) == 1
    assert element_order(ModMatrix.from_rows(CTX25, [[1, -3], [0, -1]])) == 2
    sigma = ModMatrix.from_rows(CTX25, [[6, 1], [10, 6]])
    assert element_order(sigma) == 25
    assert _pow4(sigma.entries, 5, 25) == (1, 5, 0, 1)


def test_multiplication_table_consistency():
    g = close_group([[[1, -3], [1, -2]], [[1, -3], [0, -1]]], CTX25)
    table = g.multiplication_table()
    for i in range(len(g)):
        for j in range(len(g)):
            prod = oracle_product([g._keys[i], g._keys[j]], 25)
            assert g._keys[table[i][j]] == prod
        assert g.mult(i, g.inv(i)) == 0
        assert g.mult(g.inv(i), i) == 0


def test_lagrange_and_words():
    g = close_group(s3_generators(5), CTX25)
    assert len(g) == 150
    h = reduction_kernel(g)
    assert len(g) % len(h) == 0
    # Generator words reproduce the elements.
    for i in range(len(g)):
        word = g.word(i)
        assert oracle_product([g._keys[g.generators[j]] for j in word], 25) == g._keys[i]


def test_reduction_kernel_sizes():
    s3 = close_group(s3_generators(5), CTX25, label="s3")
    assert len(reduction_kernel(s3)) == 25
    from h1loc.constructions import cyclic_generators

    cyc = close_group(cyclic_generators(5), CTX25)
    assert len(reduction_kernel(cyc)) == 25


def test_reduction_kernel_normal():
    g = close_group(s3_generators(5), CTX25)
    assert g.is_normal_set(reduction_kernel(g))


def test_reduction_kernel_level_one_notice():
    ctx = ModulusContext(5, 1)
    g = close_group([[[2, 0], [0, 1]]], ctx)
    with pytest.warns(UserWarning):
        k = reduction_kernel(g)
    assert k == frozenset({0})


def test_quotient_s3():
    g = close_group(s3_generators(5), CTX25)
    q = quotient_group(g, reduction_kernel(g))
    assert len(q) == 6
    assert not q.is_abelian()


def test_quotient_by_whole_group_is_trivial():
    g = close_group([[[1, -3], [1, -2]]], CTX25)
    q = quotient_group(g, range(len(g)))
    assert len(q) == 1


def test_quotient_borel_shared():
    g = close_group(borel_shared_generators(5), CTX25)
    q = quotient_group(g, reduction_kernel(g))
    assert len(q) == 10


def test_quotient_rejects_non_normal():
    g = close_group(s3_generators(5), CTX25)
    sigma_idx = g.index_of([[1, -3], [0, -1]])
    sub = closure_indices(g, [sigma_idx])
    from h1loc import ContractError

    with pytest.raises(ContractError):
        quotient_group(g, sub)


def test_conjugation_stabilizes_kernel_family():
    g = close_group(s3_generators(5), CTX25)
    kernel = reduction_kernel(g)
    tau = g.index_of([[1, -3], [1, -2]])
    sigma = g.index_of([[1, -3], [0, -1]])
    assert g.conjugate_set(tau, kernel) == kernel
    assert g.conjugate_set(sigma, kernel) == kernel


def test_fixed_submodule_cases():
    from h1loc import full_basis

    assert fixed_submodule(CTX25, [ModMatrix.identity(CTX25, 2)]) == full_basis(CTX25, 2)
    d = ModMatrix.from_rows(CTX25, [[7, 0], [0, 1]])
    fixed = fixed_submodule(CTX25, [d])
    assert [r.coords for r in fixed.rows] == [(0, 1)]
    s3 = close_group(s3_generators(5), CTX25)
    assert fixed_submodule(CTX25, (s3.matrix(i) for i in range(len(s3)))).is_zero()


def test_eigen_data_cases():
    split = eigen_data(ModMatrix.from_rows(CTX25, [[7, 0], [0, 1]]))
    assert sorted(split.eigenvalues) == [1, 2]
    assert not split.irreducible
    assert split.vectors_for(1) is not None

    tau = eigen_data(ModMatrix.from_rows(CTX25, [[1, -3], [1, -2]]))
    assert tau.irreducible and tau.eigenvalues == ()

    unipotent = eigen_data(ModMatrix.from_rows(CTX25, [[1, 1], [0, 1]]))
    assert unipotent.eigenvalues == (1, 1)
    vecs = unipotent.vectors_for(1)
    assert [r.coords for r in vecs.rows] == [(1, 0)]


def test_borel_check_cases():
    shared = close_group(borel_shared_generators(5), CTX25)
    v = borel_check(shared)
    assert v is not None and v.coords == (1, 0)

    s3 = close_group(s3_generators(5), CTX25)
    assert borel_check(s3) is None

    trivial = close_group([[[1, 0], [0, 1]]], CTX25)
    assert borel_check(trivial).coords == (1, 0)


def test_power_identity_specific_values():
    ctx = ModulusContext(5, 2)
    assert power_identity_check(0, 0, 0, 0, ctx)
    assert oracle_power((6, 11, 15, 21), 5, 25) == (1, 5, 0, 1)
    assert power_identity_check(1, 2, 3, 4, ctx)
    ctx343 = ModulusContext(7, 3)
    rng = random.Random(3)
    a, b, c, d = (rng.randrange(343) for _ in range(4))
    assert power_identity_check(a, b, c, d, ctx343)
    m3 = (1 + 7 * a, 1 + 7 * b, 7 * c, 1 + 7 * d)
    assert oracle_power(m3, 49, 343) == (1, 49, 0, 1)


def test_power_identity_randomized_batches():
    rng = random.Random(0)
    for p in (5, 7, 11, 13):
        for n in (2, 3):
            ctx = ModulusContext(p, n)
            q = ctx.modulus
            for _ in range(200):
                assert power_identity_check(
                    rng.randrange(q), rng.randrange(q), rng.randrange(q), rng.randrange(q), ctx
                )


def test_power_identity_requires_depth():
    with pytest.raises(InputError):
        power_identity_check(0, 0, 0, 0, ModulusContext(5, 1))


def test_subgroup_reenumeration_and_embedding():
    g = close_group(borel_shared_generators(5), CTX25)
    kernel = reduction_kernel(g)
    sub = subgroup_from_indices(g, kernel, label="kernel")
    assert len(sub) == 25
    back = [g.index_of(sub.matrix(i)) for i in range(len(sub))]
    assert frozenset(back) == kernel


def test_group_json_round_trip_with_negatives():
    data = {
        "p": 5,
        "n": 2,
        "generators": [[[1, -3], [1, -2]], [[1, -3], [0, -1]]],
        "label": "sample",
    }
    g = group_from_json(data)
    assert len(g) == 6
    assert g.label == "sample"
    out = group_to_json(g)
    assert out["generators"][0] == [[1, 22], [1, 23]]
    assert group_from_json(out).label == "sample"


def test_group_json_rejects_malformed():
    with pytest.raises(InputError):
        group_from_json({"p": 5, "n": 2, "generators": [[[1, 0]]]})
    with pytest.raises(InputError):
        group_from_json({"p": 6, "n": 1, "generators": [[[1, 0], [0, 1]]]})
    with pytest.raises(InputError):
        group_from_json({"p": 5, "n": 2, "generators": []})


def test_fixed_submodule_eigenvector_reading():
    # A diagonal whose top entry differs from 1 by a unit fixes one axis;
    # if the difference is divisible by p the torsion part survives too.
    ctx9 = ModulusContext(3, 2)
    unit_diff = fixed_submodule(ctx9, [ModMatrix.from_rows(ctx9, [[2, 0], [0, 1]])])
    assert [r.coords for r in unit_diff.rows] == [(0, 1)]
    p_diff = fixed_submodule(ctx9, [ModMatrix.from_rows(ctx9, [[4, 0], [0, 1]])])
    assert [r.coords for r in p_diff.rows] == [(3, 0), (0, 1)]


def test_vector_matrix_arithmetic():
    v = ModVector.make(CTX25, [3, 4])
    w = ModVector.make(CTX25, [30, -4])
    assert (v + w).coords == (8, 0)
    assert (v - w).coords == (23, 8)
    assert (-v).coords == (22, 21)
    assert v.scale(10).coords == (5, 15)
    m = ModMatrix.from_rows(CTX25, [[1, 2], [3, 4]])
    assert m.vec_mul(v).coords == (11, 0)
    m_inv = _inv4(m.entries, 25)
    assert oracle_product([m.entries, m_inv], 25) == oracle_product([m_inv, m.entries], 25) == (1, 0, 0, 1)


def test_power_walk_matches_element_order_on_gl2_f5():
    # The walk that gives both the order and the cyclic span, against
    # binary exponentiation by numpy's matrix_power as the independent oracle.
    ctx = ModulusContext(5, 1)
    count = 0
    for key in itertools.product(range(5), repeat=4):
        if (key[0] * key[3] - key[1] * key[2]) % 5 == 0:
            continue
        count += 1
        walk = _powers4(key, 5)
        order = next(k for k in range(1, 481) if oracle_power(key, k, 5) == (1, 0, 0, 1))
        assert element_order(ModMatrix(ctx, 2, 2, key)) == len(walk) == order
        assert walk == [oracle_power(key, j, 5) for j in range(order)]
    assert count == 480


def test_pow4_matches_sympy_power():
    # Square and multiply against sympy's exact integer matrix power reduced
    # mod q, on seeded random invertible matrices, exponents 0 to p^(n-1).
    rng = random.Random(11)
    for p, n in ((5, 2), (5, 3), (7, 3), (7, 4)):
        q = p**n
        for _ in range(20):
            key = (0, 0, 0, 0)
            while (key[0] * key[3] - key[1] * key[2]) % p == 0:
                key = tuple(rng.randrange(q) for _ in range(4))
            for k in (0, 1, 2, p, rng.randrange(p ** (n - 1) + 1), p ** (n - 1)):
                want = tuple(int(x) % q for x in sympy.Matrix(2, 2, list(key)) ** k)
                assert _pow4(key, k, q) == want, (key, k, q)


CONSTRUCTION_GROUPS_P5 = [
    build_s3_quotient_group,
    build_cyclic_quotient_group,
    build_borel_shared_group,
    build_borel_index2_group,
    lambda p: build_borel_disjoint_group(p, variant="canonical"),
    lambda p: build_borel_disjoint_group(p, variant="extra-diagonal"),
]


@pytest.mark.parametrize("build", CONSTRUCTION_GROUPS_P5,
                         ids=["s3", "cyclic", "borel-shared", "borel-index2",
                              "disjoint-canonical", "disjoint-extra"])
def test_words_rebuild_every_element(build):
    g = build(5)
    previous = 0
    q = g.ctx.modulus
    for i in range(len(g)):
        word = g.word(i)
        assert oracle_product([g._keys[g.generators[j]] for j in word], q) == g._keys[i]
        # Breadth-first order: words never get shorter along the indices.
        assert len(word) >= previous
        previous = len(word)


def _all_pairs_subgroup(g, indices):
    """The all-pairs definition: the identity, every product and every inverse."""
    s = frozenset(indices)
    return 0 in s and all(g.mult(a, b) in s for a in s for b in s) and all(g.inv(a) in s for a in s)


@pytest.mark.parametrize("build", CONSTRUCTION_GROUPS_P5,
                         ids=["s3", "cyclic", "borel-shared", "borel-index2",
                              "disjoint-canonical", "disjoint-extra"])
def test_is_subgroup_set_matches_all_pairs_on_kernels(build):
    g = build(5)
    kernel = reduction_kernel(g)
    outside = min(frozenset(range(len(g))) - kernel)
    for s in (kernel, kernel - {max(kernel)}, kernel - {0}, kernel | {outside}):
        assert g.is_subgroup_set(s) == _all_pairs_subgroup(g, s)
    assert g.is_subgroup_set(kernel)
    assert g.subgroup_generators(kernel | {outside}) is None


def test_is_subgroup_set_matches_all_pairs_on_random_subsets():
    # Half of the subsets are closures of one or two random elements, some
    # with one element added or removed; the rest are random sets with the
    # identity.
    g = build_cyclic_quotient_group(5)
    n = len(g)
    rng = random.Random(6)
    closed = 0
    for _ in range(300):
        if rng.random() < 0.5:
            s = set(closure_indices(g, rng.sample(range(1, n), rng.randint(1, 2))))
            edit = rng.random()
            if edit < 0.25:
                s.discard(rng.choice(sorted(s)))
            elif edit < 0.5:
                s.add(rng.randrange(n))
        else:
            s = {0, *rng.sample(range(1, n), rng.randint(0, n - 1))}
        expected = _all_pairs_subgroup(g, s)
        assert g.is_subgroup_set(s) == expected
        closed += expected
        if expected:
            # The greedy generators generate exactly the set.
            assert closure_indices(g, g.subgroup_generators(s) or [0]) == frozenset(s)
    assert 50 < closed < 250


def test_closure_memory_is_linear_in_group_order():
    # <diag(3, 1)> over Z/7^6: 3 is a primitive root mod 7^6, so the group
    # has 6 * 7^5 = 100,842 elements, each one BFS step deeper than the last.
    # The closure peaks at about 22.5 MB under CPython 3.11: per element one
    # key, one index entry and four array slots (tree edge, generator slot,
    # edge target, inverse).
    tracemalloc.start()
    try:
        size = len(close_group([[[3, 0], [0, 1]]], ModulusContext(7, 6)))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert size == 100_842
    assert peak < 30


def test_closure_cap_bounds_memory():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            close_group([[[3, 0], [0, 1]]], ModulusContext(7, 6), cap=40_000)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 20
