"""The mod-p trichotomy classifier, the shape filter, and the scanner."""

import functools
import itertools
from math import gcd

import pytest

from h1loc import (
    CASE_BOREL,
    CASE_CYCLIC,
    CASE_NONE,
    CASE_S3,
    ConsistencyError,
    InputError,
    ModulusContext,
    ResourceLimitError,
    borel_check,
    classify_mod_p_group,
    close_group,
    closure_indices,
    eigen_data,
    element_order,
    fixed_submodule,
    full_module,
    h1_loc,
    necessary_shape_filter,
    quotient_group,
    reverify_verdict,
    scan_prime_to_p_subgroups,
)
from h1loc import classify
from h1loc.classify import SCAN_PRIMES, ScanEntry, _class_orders, _has_eigenvalue_one, _s3_order3_elements, _trdet
from h1loc.constructions import (
    build_borel_shared_group,
    build_cyclic_quotient_group,
    build_s3_quotient_group,
)
from h1loc.groups import _IDENTITY, _apply4, _close_keys, _inv4, _mul4, _powers4, _rows, cyclic_walk

F5 = ModulusContext(5, 1)


def test_case_cyclic_example():
    g = close_group([[[2, 0], [0, 1]]], F5)
    verdict = classify_mod_p_group(g)
    assert verdict.case == CASE_CYCLIC
    assert reverify_verdict(g, verdict)


def test_case_s3_example():
    g = close_group([[[1, -3], [1, -2]], [[1, -3], [0, -1]]], F5)
    verdict = classify_mod_p_group(g)
    assert verdict.case == CASE_S3
    assert verdict.evidence["isomorphism_type"] == "S3"
    assert reverify_verdict(g, verdict)


def test_case_c3_example():
    g = close_group([[[1, -3], [1, -2]]], F5)
    verdict = classify_mod_p_group(g)
    assert verdict.case == CASE_S3
    assert verdict.evidence["isomorphism_type"] == "C3"
    assert reverify_verdict(g, verdict)


def test_case_borel_example():
    g = close_group([[[1, 1], [0, 1]], [[1, 0], [0, -1]]], F5)
    verdict = classify_mod_p_group(g)
    assert verdict.case == CASE_BOREL
    assert reverify_verdict(g, verdict)


def test_case_none_examples():
    minus = close_group([[[-1, 0], [0, -1]]], F5)
    assert classify_mod_p_group(minus).case == CASE_NONE
    # order 4 rotation: order divides p - 1 but no eigenvalue 1
    rot = close_group([[[0, -1], [1, 0]]], F5)
    assert classify_mod_p_group(rot).case == CASE_NONE


def test_classifier_requires_level_one():
    g = build_s3_quotient_group(5)
    with pytest.raises(InputError):
        classify_mod_p_group(g)


def test_a_verdict_that_fails_its_recheck_raises(monkeypatch):
    # classify_mod_p_group re-checks each verdict against its evidence
    # before returning it: a rotation of order 4 recorded as a cyclic
    # generator with eigenvalue 1 is refused, not returned.
    rot = close_group([[[0, -1], [1, 0]]], F5)
    evidence = {"generator": [[0, -1], [1, 0]], "order": 4, "eigenvalues": []}
    monkeypatch.setattr(classify, "_case_cyclic", lambda g, orders: evidence)
    with pytest.raises(ConsistencyError, match="re-check"):
        classify_mod_p_group(rot)


def _case_borel_by_fixed_submodule(g, orders):
    """The Borel case as the classifier once decided it, with the shared
    vector read off the Howell basis of the vectors that s and g both fix."""
    if borel_check(g) is None:
        return None
    for si in [i for i, o in enumerate(orders) if o == g.ctx.p]:
        for gi in [i for i, o in enumerate(orders) if o in (1, 2)]:
            if closure_indices(g, [si, gi]) != frozenset(range(len(g))):
                continue
            shared = fixed_submodule(g.ctx, [g._keys[si], g._keys[gi]])
            if not shared.is_zero():
                return {"sigma": _rows(g._keys[si]), "g": _rows(g._keys[gi]),
                        "shared_eigenvector": list(shared.rows[0])}
    return None


@pytest.mark.parametrize("p, pairs", [(5, 288), (7, 768)])
def test_borel_shared_vector_matches_fixed_submodule(p, pairs):
    # Over every pair (s, g) of GL_2(F_p) with s of order p, g of order at
    # most 2 and <s, g> in a Borel: the vector that _case_borel reads off
    # the stabilised line v (v when g v = v, else none) is the first Howell
    # row of the vectors that s and g both fix, or both are absent; and on
    # <s, g> the classifier's Borel case equals its fixed_submodule reading.
    ctx = ModulusContext(p, 1)
    keys = [k for k in itertools.product(range(p), repeat=4) if (k[0] * k[3] - k[1] * k[2]) % p]
    order_p = [k for k in keys if element_order(ctx, k) == p]
    small = [k for k in keys if element_order(ctx, k) <= 2]
    checked = 0
    groups = set()
    for s in order_p:
        # s stabilises one line, so <s, g> is in a Borel exactly when g
        # stabilises it too; only those pairs are closed.
        w0, w1 = borel_check(close_group([_rows(s)], ctx))
        for g_key in small:
            x0, x1 = _apply4(g_key, (w0, w1), p)
            if (x0 * w1 - x1 * w0) % p:
                continue
            group = close_group([_rows(s), _rows(g_key)], ctx)
            v = borel_check(group)
            checked += 1
            shared = fixed_submodule(ctx, [s, g_key])
            expected = None if shared.is_zero() else shared.rows[0]
            assert (v if _apply4(g_key, v, p) == v else None) == expected, (s, g_key)
            members = frozenset(group._keys)
            if members not in groups:
                groups.add(members)
                orders = cyclic_walk(group)[0]
                assert classify._case_borel(group, orders) == _case_borel_by_fixed_submodule(group, orders)
    assert checked == pairs


# <diag(2, 1)> over F_5, classified by a cyclic generator with eigenvalue 1.
DIAG21 = [[2, 0], [0, 1]]


@pytest.mark.parametrize(
    "verdict",
    [
        # A generator outside the group: 2 Id has order 4, as <diag(2, 1)> does.
        (CASE_CYCLIC, {"generator": [[2, 0], [0, 2]], "order": 4, "eigenvalues": [2, 2]}),
        # A matrix that is not 2x2 integer rows.
        (CASE_CYCLIC, {"generator": [[2, 0, 0], [0, 1]], "order": 4, "eigenvalues": [1, 2]}),
        # No evidence at all.
        (CASE_CYCLIC, {}),
        # A shared vector with three entries, beside a sigma and g that pass.
        (CASE_BOREL, {"sigma": [[1, 1], [0, 1]], "g": [[1, 0], [0, -1]], "shared_eigenvector": [1, 0, 0]}),
    ],
    ids=["generator-outside-the-group", "malformed-matrix", "empty-evidence", "malformed-vector"],
)
def test_bad_evidence_fails_the_recheck(monkeypatch, verdict):
    # Evidence that names a matrix outside the group, a malformed matrix or
    # vector, or nothing, fails the re-check (False), and the classifier
    # that recorded it raises ConsistencyError, not InputError or KeyError.
    case, evidence = verdict
    g = close_group([DIAG21], F5)
    assert classify_mod_p_group(g).case == CASE_CYCLIC
    assert reverify_verdict(g, classify.CaseVerdict(case, evidence)) is False
    monkeypatch.setattr(classify, "_case_cyclic", lambda g, orders: None)
    finder = {CASE_CYCLIC: "_case_cyclic", CASE_BOREL: "_case_borel"}[case]
    monkeypatch.setattr(classify, finder, lambda g, orders: evidence)
    with pytest.raises(ConsistencyError, match="re-check"):
        classify_mod_p_group(g)


# The S_3 of test_case_s3_example, and the cyclic group of order 6 over F_5.
S3_GENS = [[[1, -3], [1, -2]], [[1, -3], [0, -1]]]
C6_GEN = [[0, -1], [1, 1]]


def test_s3_evidence_must_name_an_element_of_the_group():
    # [[0, 1], [4, 4]] has order 3 and an irreducible characteristic
    # polynomial, but lies outside this S_3.
    g = close_group(S3_GENS, F5)
    verdict = classify_mod_p_group(g)
    assert verdict.case == CASE_S3 and reverify_verdict(g, verdict)
    outside = [[0, 1], [4, 4]]
    key = (0, 1, 4, 4)
    assert element_order(F5, key) == 3 and eigen_data(F5, key).irreducible
    with pytest.raises(InputError):
        g.index_of(outside)
    forged = verdict._replace(evidence={**verdict.evidence, "order_3_element": outside})
    assert reverify_verdict(g, forged) is False


def test_s3_evidence_must_come_from_a_non_abelian_group(monkeypatch):
    # The cyclic group of order 6 holds an irreducible element of order 3,
    # [[-1, -1], [1, 0]], but is abelian: an S3 verdict on it fails the
    # re-check, and the classifier that recorded it raises.
    g = close_group([C6_GEN], F5)
    assert len(g) == 6 and g.is_abelian()
    assert classify_mod_p_group(g).case == CASE_NONE
    x = [[-1, -1], [1, 0]]
    g.index_of(x)  # an element of g: InputError otherwise
    assert element_order(F5, (4, 4, 1, 0)) == 3 and eigen_data(F5, (4, 4, 1, 0)).irreducible
    evidence = {"isomorphism_type": "S3", "order": 6, "order_3_element": x,
                "irreducible_characteristic_polynomial": True}
    assert reverify_verdict(g, classify.CaseVerdict(CASE_S3, evidence)) is False
    monkeypatch.setattr(classify, "_case_s3", lambda g, orders: evidence)
    with pytest.raises(ConsistencyError, match="re-check"):
        classify_mod_p_group(g)


def test_recheck_still_refuses_a_group_over_a_larger_ring():
    g = close_group([DIAG21], ModulusContext(5, 2))
    with pytest.raises(InputError, match="n = 1"):
        reverify_verdict(g, classify.CaseVerdict(CASE_NONE, {}))


def test_construction_reductions_classify_as_expected():
    expected = {
        build_s3_quotient_group: CASE_S3,
        build_cyclic_quotient_group: CASE_CYCLIC,
        build_borel_shared_group: CASE_BOREL,
    }
    for builder, case in expected.items():
        red = quotient_group(builder(5))
        verdict = classify_mod_p_group(red)
        assert verdict.case == case
        assert reverify_verdict(red, verdict)


def test_shape_filter_examples():
    gl2 = close_group([[[2, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [1, 0]]], F5)
    assert len(gl2) == 480
    assert not necessary_shape_filter(gl2).passes

    minus = close_group([[[-1, 0], [0, -1]]], F5)
    assert not necessary_shape_filter(minus).passes

    s3_red = quotient_group(build_s3_quotient_group(5))
    assert necessary_shape_filter(s3_red).passes

    borel_red = quotient_group(build_borel_shared_group(5))
    assert necessary_shape_filter(borel_red).passes

    cyclic_p = close_group([[[1, 1], [0, 1]]], F5)
    verdict = necessary_shape_filter(cyclic_p)
    assert verdict.passes and verdict.reasons == ("cyclic-of-order-p",)


def test_scan_p5_inventory():
    entries = scan_prime_to_p_subgroups(5)
    s3_orders = sorted({e.order for e in entries if e.verdict.case == CASE_S3})
    assert s3_orders == [3, 6]
    cyclic_entries = [e for e in entries if e.verdict.case == CASE_CYCLIC]
    assert cyclic_entries
    for e in cyclic_entries:
        gen = e.verdict.evidence["generator"]
        # eigenvalue 1 means the characteristic polynomial vanishes at 1
        a, b = gen[0]
        c, d = gen[1]
        assert (1 - (a + d) + (a * d - b * c)) % 5 == 0


def test_scan_p7_has_no_s3_entries():
    entries = scan_prime_to_p_subgroups(7)
    assert all(e.verdict.case != CASE_S3 for e in entries)


def test_scan_cap():
    with pytest.raises(ResourceLimitError):
        scan_prime_to_p_subgroups(17)


def test_scan_verdicts_reverify():
    entries = scan_prime_to_p_subgroups(5)
    ctx = ModulusContext(5, 1)
    for e in entries:
        g = close_group([m for m in e.generators], ctx)
        assert len(g) == e.order
        assert reverify_verdict(g, e.verdict)


def test_scan_deterministic():
    a = scan_prime_to_p_subgroups(5)
    b = scan_prime_to_p_subgroups(5)
    assert [e.to_json() for e in a] == [e.to_json() for e in b]


def test_nonvanishing_implies_shape_filter_p5():
    # One-directional sanity: any scanned subgroup with non-trivial local
    # cohomology at level one must pass the necessary-condition filter.
    entries = scan_prime_to_p_subgroups(5)
    ctx = ModulusContext(5, 1)
    for e in entries:
        g = close_group([m for m in e.generators], ctx)
        rep = h1_loc(g, full_module(ctx))
        if rep.order > 1:
            assert e.shape_filter.passes


def _gl2_elements(p):
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p:
                        yield (a, b, c, d)


def _cyclic_pass(p):
    """The first pass of the whole-group scanner, over GL_2(F_p) in
    _gl2_elements order, kept with _reference_scan as its oracle.

    Returns (orders, subgroups, order2): the order of every element (the
    identity included), each cyclic subgroup of order prime to p keyed by
    its element set and mapped to (first generator,), in the order of the
    first generators, and the elements of order 2 in enumeration order.

    Each cyclic subgroup is walked once, from its first generator x in
    enumeration order: the power list [Id, x, ..., x^(k-1)] is the whole
    subgroup, and x^j with gcd(j, k) = 1 are exactly its other generators,
    so they get order k without a walk of their own.
    """
    orders = {}
    subgroups = {}
    order2 = []
    for key in _gl2_elements(p):
        o = orders.get(key)
        if o is None:
            span = _powers4(key, p)
            o = len(span)
            # j = 0 passes only for k = 1, where it records the identity.
            for j in range(o):
                if gcd(j, o) == 1:
                    orders[span[j]] = o
            if o % p:
                subgroups[frozenset(span)] = (key,)
        if o == 2:
            order2.append(key)
    return orders, subgroups, order2


@functools.lru_cache(maxsize=None)
def _reference_winners(p):
    """{(size, fp): (sorted members, generators)} as the whole-group
    scanner found it: every cyclic subgroup from _cyclic_pass, every S_3
    from pairing the first generator x of each order-3 subgroup with each
    involution y, and per key the lexicographically least sorted member
    tuple."""
    orders, subgroups, order2 = _cyclic_pass(p)

    # x runs over the first generator of each cyclic subgroup of order 3:
    # <x^2, y> = <x, y>, and the pairs with x come first in any case.
    for x in [gens[0] for members, gens in subgroups.items() if len(members) == 3]:
        x2 = _mul4(x, x, p)
        for y in order2:
            # y = y^-1, so y x y = x^-1 iff (y x)^2 = Id; y x = Id cannot
            # hold, as x and y have different orders.
            yx = _mul4(y, x, p)
            if orders[yx] == 2:
                # y x = x^2 y, so the six elements below are closed under
                # products: they are <x, y>.
                members = frozenset((_IDENTITY, x, x2, y, yx, _mul4(yx, x, p)))
                if members not in subgroups:
                    subgroups[members] = (x, y)

    by_fingerprint = {}
    for members, gens in subgroups.items():
        fp = tuple(
            sorted(
                (orders[m], (m[0] * m[3] - m[1] * m[2]) % p, (m[0] + m[3]) % p)
                for m in members
            )
        )
        key = (len(members), fp)
        candidate = (tuple(sorted(members)), gens)
        if key not in by_fingerprint or candidate[0] < by_fingerprint[key][0]:
            by_fingerprint[key] = candidate
    return by_fingerprint


def _reference_scan(p):
    """The JSON of the whole-group scanner's entries, closed, classified,
    filtered and sorted as scan_prime_to_p_subgroups does."""
    ctx = ModulusContext(p, 1)
    entries = []
    for (size, _fp), (_members, gens) in sorted(_reference_winners(p).items()):
        gen_rows = tuple(map(_rows, gens))
        group = close_group(gen_rows, ctx)
        assert len(group) == size
        entries.append(ScanEntry(order=size, generators=gen_rows, verdict=classify_mod_p_group(group),
                                 shape_filter=necessary_shape_filter(group)))
    entries.sort(key=lambda e: (e.order, e.generators))
    return [e.to_json() for e in entries]


@pytest.mark.parametrize("p", SCAN_PRIMES)
def test_scan_matches_whole_group_reference_scan(p):
    assert [e.to_json() for e in scan_prime_to_p_subgroups(p)] == _reference_scan(p)


@pytest.mark.parametrize("p", SCAN_PRIMES)
def test_class_orders_are_element_orders(p):
    # Lemma (a): on elements of order prime to p the order is a function
    # of (trace, determinant), which the scanner computes once per class.
    orders, _spans = _class_orders(p)
    checked = 0
    for x in _gl2_elements(p):
        k = len(_powers4(x, p))
        if k % p:
            assert orders[_trdet(x, p)] == k
            checked += 1
    # p - 1 scalar classes and (p - 1)^2 classes with distinct eigenvalues.
    assert len(orders) == p * (p - 1)
    assert checked == (p * p - 1) * (p * p - p) - (p * p - 1) * (p - 1)


@pytest.mark.parametrize("p", SCAN_PRIMES)
def test_s3_order3_elements_by_brute_force(p):
    # Lemma (b): the closed form lists exactly the order-3 elements that
    # y0 = (0, 1, 1, 0) inverts.
    y0 = (0, 1, 1, 0)
    brute = [
        x for x in _gl2_elements(p)
        if len(_powers4(x, p)) == 3 and _mul4(_mul4(y0, x, p), y0, p) == _inv4(x, p)
    ]
    assert brute
    assert sorted(_s3_order3_elements(p)) == brute


@pytest.mark.parametrize("p", SCAN_PRIMES)
def test_reference_winner_contains_least_companion(p):
    # Lemma (c): the whole-group scanner's winner of each key contains the
    # least companion matrix (0, 1, -det, tr) over the key's non-scalar
    # entries; a key with only scalar entries is a subgroup of scalars.
    with_companion = 0
    for (_size, fp), (members, _gens) in _reference_winners(p).items():
        companions = [(0, 1, -det % p, tr) for _o, det, tr in fp if (tr * tr - 4 * det) % p]
        if companions:
            assert min(companions) in members
            with_companion += 1
        else:
            assert all(b == c == 0 and a == d for a, b, c, d in members)
    assert with_companion


def _reference_cyclic_pass(p):
    """The scanner's first pass as it was before each cyclic subgroup was
    walked once: every element walks its full span, the first generator in
    enumeration order registers the subgroup.  Kept as the oracle."""
    orders = {}
    subgroups = {}
    order2 = []
    for key in _gl2_elements(p):
        span = _powers4(key, p)
        o = len(span)
        orders[key] = o
        if o == 2:
            order2.append(key)
        if o % p:
            s = frozenset(span)
            if s not in subgroups:
                subgroups[s] = (key,)
    return orders, subgroups, order2


@pytest.mark.parametrize("p", [5, 7, 11])
def test_cyclic_pass_matches_per_element_walk(p):
    orders, subgroups, order2 = _cyclic_pass(p)
    ref_orders, ref_subgroups, ref_order2 = _reference_cyclic_pass(p)
    assert len(orders) == (p * p - 1) * (p * p - p)
    assert orders == ref_orders
    assert subgroups == ref_subgroups
    assert list(subgroups.items()) == list(ref_subgroups.items())
    assert order2 == ref_order2


@pytest.mark.parametrize("p", [5, 7])
def test_dihedral_pair_closes_to_six_elements(p):
    # The scanner takes <x, y> = {Id, x, x^2, y, yx, yx^2} for every pair
    # that passes its test; the breadth-first closure is the oracle.
    orders, _, order2 = _cyclic_pass(p)
    order3 = [k for k in _gl2_elements(p) if orders[k] == 3]
    passing = 0
    for x in order3:
        x2 = _mul4(x, x, p)
        for y in order2:
            yx = _mul4(y, x, p)
            if orders[yx] == 2:
                closed = frozenset(_close_keys((x, y), p)[0])
                assert closed == frozenset((_IDENTITY, x, x2, y, yx, _mul4(yx, x, p)))
                passing += 1
    assert passing


@pytest.mark.parametrize("p", [5, 7, 11])
def test_dihedral_test_by_order_of_product(p):
    # The scanner tests y x y = x^-1 as orders[y x] == 2 (y has order 2).
    orders, _, order2 = _cyclic_pass(p)
    order3 = [k for k in _gl2_elements(p) if orders[k] == 3]
    inverting = 0
    for x in order3:
        xinv = _inv4(x, p)
        for y in order2:
            yx = _mul4(y, x, p)
            dihedral = _mul4(yx, y, p) == xinv
            assert (orders[yx] == 2) == dihedral
            inverting += dihedral
    assert inverting


@pytest.mark.parametrize("p", [5, 7])
def test_eigenvalue_one_closed_form_matches_eigen_data(p):
    """(1 - tr + det) % p == 0 against the eigenvalues eigen_data finds,
    on every element of GL_2(F_p)."""
    ctx = ModulusContext(p, 1)
    count = 0
    for x in itertools.product(range(p), repeat=4):
        if (x[0] * x[3] - x[1] * x[2]) % p:
            assert _has_eigenvalue_one(ctx, x) == (1 in eigen_data(ctx, x).eigenvalues), x
            count += 1
    assert count == (p * p - 1) * (p * p - p)
