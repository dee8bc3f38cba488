"""Group enumeration, structure queries, and the power identity."""

import itertools
import random
import tracemalloc

import pytest
import sympy

from h1loc import (
    ConsistencyError,
    ContractError,
    InputError,
    ModulusContext,
    ResourceLimitError,
    borel_check,
    close_group,
    closure_indices,
    eigen_data,
    element_order,
    fixed_submodule,
    group_from_json,
    howell_from_rows,
    image_indices,
    power_identity_check,
    quotient_group,
    reduction_kernel,
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
from h1loc.groups import _apply4, _inv4, _key, _pow4, _powers4, cyclic_walk
from conftest import (
    construction_groups,
    mat_vec,
    oracle_power,
    oracle_product,
    spanning_tree_by_scan,
    subgroup_from_indices,
)


def _word(g, i):
    """Generator positions whose product, left to right, is element i; a
    shortest such word, read off a breadth-first pass over the closure's
    edge targets g._right."""
    k = len(g.generators)
    tree = {0: None}  # element -> (parent, generator position)
    order = [0]
    for a in order:
        for j in range(k):
            t = g._right[a * k + j]
            if t not in tree:
                tree[t] = (a, j)
                order.append(t)
    out = []
    while i:
        i, j = tree[i]
        out.append(j)
    return tuple(reversed(out))


def _is_subgroup_set(g, indices):
    return g.subgroup_generators(indices) is not None


CTX25 = ModulusContext(5, 2)
F5 = ModulusContext(5, 1)


def test_close_group_identity_only():
    g = close_group([[[1, 0], [0, 1]]], CTX25)
    assert len(g) == 1
    assert g._keys[0] == (1, 0, 0, 1)


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


def _tree(g):
    """(parent, slot) as the cocycle system reads them off the closure:
    divmod(g._first[i], k) for each element i > 0; the root is its own
    parent."""
    k = len(g.generators)
    tree = [divmod(g._first[i], k) for i in range(1, len(g))]
    return [0] + [a for a, _ in tree], [0] + [s for _, s in tree]


def test_spanning_tree_of_the_trivial_group():
    # No generator survives close_group, so there is no generator count to
    # divide the first-edge positions by: the root alone is recorded, at
    # position 0, and it is its own parent.
    for gens in ([[[1, 0], [0, 1]]], [[[1, 0], [0, 1]], [[26, 0], [0, 26]]]):
        g = close_group(gens, CTX25)
        assert g.generators == () and len(g) == 1
        assert list(g._first) == [0] and _tree(g) == ([0], [0])
    g = close_group([[[1, 0], [0, 1]]], F5)
    assert list(g._first) == [0] and _tree(g) == ([0], [0])


def test_spanning_tree_matches_the_edge_table_scan_on_random_groups():
    """The tree that the closure records against the scan of its edge table,
    on seeded random groups of one to three generators over F_7, Z/9, Z/25
    and Z/27, with repeated and identity generators among them."""
    rng = random.Random(25)
    checked = 0
    while checked < 60:
        ctx = ModulusContext(*rng.choice([(7, 1), (3, 2), (5, 2), (3, 3)]))
        q = ctx.modulus
        gens = []
        for _ in range(rng.randrange(1, 4)):
            rows = [[rng.randrange(q) for _ in range(2)] for _ in range(2)]
            if (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % ctx.p:
                gens.append(rows)
        gens += rng.choice([[], [[[1, 0], [0, 1]]], gens[:1]])
        if not gens:
            continue
        try:
            g = close_group(gens, ctx, cap=3000)
        except ResourceLimitError:
            continue
        assert _tree(g) == spanning_tree_by_scan(g)
        checked += 1


def test_closure_determinism():
    gens = s3_generators(5)
    a = close_group(gens, CTX25)
    b = close_group(gens, CTX25)
    assert a._keys == b._keys
    assert [_word(a, i) for i in range(len(a))] == [_word(b, i) for i in range(len(b))]


def test_element_orders():
    g = close_group([[[1, -3], [0, -1]]], CTX25)
    assert element_order(CTX25, g._keys[0]) == 1
    assert element_order(CTX25, _key(CTX25, [[1, -3], [0, -1]])) == 2
    sigma = _key(CTX25, [[6, 1], [10, 6]])
    assert element_order(CTX25, sigma) == 25
    assert _pow4(sigma, 5, 25) == (1, 5, 0, 1)


def test_multiplication_table_consistency():
    g = close_group([[[1, -3], [1, -2]], [[1, -3], [0, -1]]], CTX25)
    for i in range(len(g)):
        for j in range(len(g)):
            prod = oracle_product([g._keys[i], g._keys[j]], 25)
            assert g._keys[g.mult(i, j)] == prod
        assert g.mult(i, g.inv(i)) == 0
        assert g.mult(g.inv(i), i) == 0


def test_lagrange_and_words():
    g = close_group(s3_generators(5), CTX25)
    assert len(g) == 150
    h = reduction_kernel(g)
    assert len(g) % len(h) == 0
    # Generator words reproduce the elements.
    for i in range(len(g)):
        word = _word(g, i)
        assert oracle_product([g._keys[g.generators[j]] for j in word], 25) == g._keys[i]


def test_reduction_kernel_sizes():
    s3 = close_group(s3_generators(5), CTX25, label="s3")
    assert len(reduction_kernel(s3)) == 25
    from h1loc.constructions import cyclic_generators

    cyc = close_group(cyclic_generators(5), CTX25)
    assert len(reduction_kernel(cyc)) == 25


def test_reduction_kernel_normal():
    g = close_group(s3_generators(5), CTX25)
    kernel = reduction_kernel(g)
    assert all(g.conjugate_set(x, kernel) == kernel for x in range(len(g)))


def test_reduction_kernel_level_one_notice():
    ctx = ModulusContext(5, 1)
    g = close_group([[[2, 0], [0, 1]]], ctx)
    with pytest.warns(UserWarning):
        k = reduction_kernel(g)
    assert k == frozenset({0})


def test_quotient_s3():
    g = close_group(s3_generators(5), CTX25)
    q = quotient_group(g)
    assert len(q) == 6
    assert not q.is_abelian()


def test_quotient_borel_shared():
    g = close_group(borel_shared_generators(5), CTX25)
    q = quotient_group(g)
    assert len(q) == 10


@pytest.mark.parametrize("p", [5, 7])
def test_quotient_is_the_image_with_the_reduction_kernel(p):
    # G/G(p) has |G| / |G(p)| elements, and the index map onto it is a
    # homomorphism whose kernel is G(p): on all pairs up to |G| = 250, on
    # the Cayley edges above that (they determine a homomorphism, since the
    # generators generate).
    for g in construction_groups(p):
        image = quotient_group(g)
        kernel = reduction_kernel(g)
        assert image.ctx == ModulusContext(p, 1)
        assert len(image) == len(g) // len(kernel)
        to_image = image_indices(g, image)
        assert frozenset(i for i, j in enumerate(to_image) if j == 0) == kernel
        n = len(g)
        if n <= 250:
            pairs = ((a, b) for a in range(n) for b in range(n))
        else:
            pairs = ((a, b) for b in g.generators for a in range(n))
        for a, b in pairs:
            assert to_image[g.mult(a, b)] == image.mult(to_image[a], to_image[b])
        # The image's generators are the distinct non-identity reductions of
        # g's, in order.
        assert [image._keys[i] for i in image.generators] == [
            image._keys[j] for j in dict.fromkeys(to_image[i] for i in g.generators) if j != 0
        ]


def test_image_indices_rejects_other_groups():
    g = close_group(borel_shared_generators(5), CTX25)
    image = quotient_group(g)
    with pytest.raises(ContractError, match="^the image must be a group over F_p for the same p$"):
        image_indices(g, g)  # not over F_p
    smaller = close_group([[[1, 1], [0, 1]]], ModulusContext(5, 1))
    with pytest.raises(ContractError, match="^an element reduces outside the given group$"):
        image_indices(g, smaller)  # misses an element's reduction
    gl2 = close_group([[[2, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [1, 0]]], ModulusContext(5, 1))
    with pytest.raises(ContractError, match="^the given group is larger than the mod-p image$"):
        image_indices(g, gl2)  # larger than the image
    assert len(image_indices(g, image)) == len(g)


def _all_pairs_abelian(g):
    return all(g.mult(a, b) == g.mult(b, a) for a in range(len(g)) for b in range(len(g)))


@pytest.mark.parametrize("p", [5, 7])
def test_is_abelian_matches_all_pairs(p):
    seen = set()
    for g in construction_groups(p):
        for h in (g, quotient_group(g)):
            assert h.is_abelian() == _all_pairs_abelian(h)
            seen.add(h.is_abelian())
    cyclic_p = close_group([[[1, 1], [0, 1]], [[1, 2], [0, 1]]], ModulusContext(p, 1))
    assert cyclic_p.is_abelian() and _all_pairs_abelian(cyclic_p)
    assert seen == {True, False}


@pytest.mark.parametrize("p", [5, 7])
def test_cyclic_walk_matches_per_element_spans(p):
    # Orders by one power walk per element; owners from the definition: the
    # least generator of a maximal cyclic subgroup, 0 inside a larger one.
    for g in construction_groups(p)[:3]:
        spans = [frozenset(g._index[k] for k in _powers4(key, g._q)) for key in g._keys]
        orders, owners = cyclic_walk(g)
        assert orders == [len(s) for s in spans]
        for y, span in enumerate(spans):
            maximal = not any(span < other for other in spans)
            assert owners[y] == (min(x for x in span if spans[x] == span) if maximal else 0), y


def test_conjugation_stabilizes_kernel_family():
    g = close_group(s3_generators(5), CTX25)
    kernel = reduction_kernel(g)
    tau = g.index_of([[1, -3], [1, -2]])
    sigma = g.index_of([[1, -3], [0, -1]])
    assert g.conjugate_set(tau, kernel) == kernel
    assert g.conjugate_set(sigma, kernel) == kernel


def test_fixed_submodule_cases():
    everything = howell_from_rows(CTX25, 2, [[1, 0], [0, 1]])
    assert fixed_submodule(CTX25, []) == everything
    assert fixed_submodule(CTX25, [(1, 0, 0, 1)]) == everything
    d = _key(CTX25, [[7, 0], [0, 1]])
    fixed = fixed_submodule(CTX25, [d])
    assert list(fixed.rows) == [(0, 1)]
    s3 = close_group(s3_generators(5), CTX25)
    assert fixed_submodule(CTX25, s3._keys).is_zero()


def test_eigen_data_cases():
    split = eigen_data(CTX25, _key(CTX25, [[7, 0], [0, 1]]))
    assert sorted(split.eigenvalues) == [1, 2]
    assert not split.irreducible
    assert not fixed_submodule(F5, [_key(F5, [[7, 0], [0, 1]])]).is_zero()

    tau = eigen_data(CTX25, _key(CTX25, [[1, -3], [1, -2]]))
    assert tau.irreducible and tau.eigenvalues == ()

    unipotent = eigen_data(CTX25, _key(CTX25, [[1, 1], [0, 1]]))
    assert unipotent.eigenvalues == (1, 1)
    assert list(fixed_submodule(F5, [_key(F5, [[1, 1], [0, 1]])]).rows) == [(1, 0)]


def test_borel_check_cases():
    shared = close_group(borel_shared_generators(5), CTX25)
    v = borel_check(shared)
    assert v == (1, 0)

    s3 = close_group(s3_generators(5), CTX25)
    assert borel_check(s3) is None

    trivial = close_group([[[1, 0], [0, 1]]], CTX25)
    assert borel_check(trivial) == (1, 0)


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
    back = [g._index[k] for k in sub._keys]
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
    # Negative entries are reduced modulo p^n on ingestion.
    assert g._keys[g.generators[0]] == (1, 22, 1, 23)


MALFORMED_ROWS = (
    [[1, 2], [3]],  # ragged
    (1, 0, 0, 1),  # a key, not rows
    [[1, 2, 3], [4, 5, 6]],  # 2x3
    [[1, 0], [0, 1], [0, 0]],  # 3x2
    [[1.5, 0], [0, 1]],  # a float entry never closes exactly
)


@pytest.mark.parametrize("rows", MALFORMED_ROWS, ids=["ragged", "key", "2x3", "3x2", "float"])
def test_malformed_matrix_rows_are_input_errors(rows):
    # A matrix is written as 2x2 rows [[a, b], [c, d]]; any other shape is
    # an InputError wherever a caller passes one.
    with pytest.raises(InputError):
        close_group([rows], CTX25)
    g = close_group([[[1, -3], [1, -2]]], CTX25)
    with pytest.raises(InputError):
        g.index_of(rows)


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
    unit_diff = fixed_submodule(ctx9, [_key(ctx9, [[2, 0], [0, 1]])])
    assert list(unit_diff.rows) == [(0, 1)]
    p_diff = fixed_submodule(ctx9, [_key(ctx9, [[4, 0], [0, 1]])])
    assert list(p_diff.rows) == [(3, 0), (0, 1)]


def test_vector_matrix_arithmetic():
    rows, key = [[1, 2], [3, 4]], (1, 2, 3, 4)
    assert mat_vec(CTX25, rows, (3, 4)) == mat_vec(CTX25, rows, (28, -21)) == (11, 0)
    assert _apply4(key, (3, 4), 25) == _apply4(key, (28, -21), 25) == (11, 0)
    m_inv = _inv4(key, 25)
    assert oracle_product([key, m_inv], 25) == oracle_product([m_inv, key], 25) == (1, 0, 0, 1)


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
        assert element_order(ctx, key) == len(walk) == order
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
        word = _word(g, i)
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
        assert _is_subgroup_set(g, s) == _all_pairs_subgroup(g, s)
    assert _is_subgroup_set(g, kernel)
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
        assert _is_subgroup_set(g, s) == expected
        closed += expected
        if expected:
            # The greedy generators generate exactly the set.
            assert closure_indices(g, g.subgroup_generators(s) or [0]) == frozenset(s)
    assert 50 < closed < 250


def test_closure_memory_is_linear_in_group_order():
    # <diag(3, 1)> over Z/7^6: 3 is a primitive root mod 7^6, so the group
    # has 6 * 7^5 = 100,842 elements, each one BFS step deeper than the last.
    # The closure peaks at about 21 MB under CPython 3.11: per element one
    # key, one index entry and two array slots (edge target, first edge).
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


def test_order_walk_gives_up_on_a_key_that_never_returns():
    # The walk's loop bound: a singular key never reaches the identity, and
    # after 4 q^2 products the walk raises instead of looping (element_order
    # refuses such a key before walking).
    with pytest.raises(ConsistencyError, match="order computation did not terminate"):
        _powers4((0, 0, 0, 0), 5)
    with pytest.raises(InputError):
        element_order(F5, (0, 0, 0, 0))
