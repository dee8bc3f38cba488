"""Builders, proof-step checks, the criterion checker, and verify_all."""

from array import array

import pytest

from h1loc import constructions, groups
from h1loc import (
    CocycleSystem,
    ConsistencyError,
    InputError,
    ModulusContext,
    build_borel_disjoint_group,
    build_borel_index2_group,
    build_borel_shared_group,
    build_cyclic_quotient_group,
    build_s3_quotient_group,
    borel_shared_witness,
    canonical_unit_lift,
    check_nonvanishing_criterion,
    close_group,
    decompose_kernel_element,
    element_order,
    full_module,
    h1_loc,
    is_coboundary,
    kernel_basis,
    kernel_displacement,
    reduction_kernel,
    restrict_cocycle,
    s3_generators,
    shared_class_value,
    verify_all,
)
from h1loc.constructions import (
    LABEL_BOREL_DISJOINT,
    LABEL_BOREL_INDEX2,
    LABEL_BOREL_SHARED,
    LABEL_CYCLIC,
    LABEL_S3,
    report_borel_shared,
    report_cyclic_quotient,
)
from h1loc.groups import _apply4, _invertible4, _pow4
from conftest import oracle_power, oracle_product


def test_s3_builder_orders_and_relations():
    g = build_s3_quotient_group(5)
    assert len(g) == 150
    tau = g.index_of([[1, -3], [1, -2]])
    sigma = g.index_of([[1, -3], [0, -1]])
    assert element_order(g.ctx, g._keys[tau]) == 3
    assert element_order(g.ctx, g._keys[sigma]) == 2
    tau_sq = g.mult(tau, tau)
    assert g.mult(g.mult(sigma, tau), g.inv(sigma)) == tau_sq


def test_s3_builder_rejects_wrong_residue():
    with pytest.raises(InputError):
        build_s3_quotient_group(7)
    with pytest.raises(InputError):
        build_s3_quotient_group(4)


def test_canonical_unit_lift():
    lam = canonical_unit_lift(5)
    assert lam == 7
    assert pow(lam, 4, 25) == 1
    assert pow(lam, 2, 25) != 1
    lam11 = canonical_unit_lift(11)
    assert pow(lam11, 10, 121) == 1
    assert all(pow(lam11, k, 121) != 1 for k in range(1, 10))


def test_canonical_unit_lift_recheck_catches_a_wrong_order(monkeypatch):
    monkeypatch.setattr(constructions, "element_order", lambda ctx, key: 1)
    with pytest.raises(ConsistencyError, match="no primitive root found modulo the prime 7"):
        canonical_unit_lift(7)


def test_cyclic_builder_numbers():
    g = build_cyclic_quotient_group(5)
    assert len(g) == 100
    lam = canonical_unit_lift(5)
    g_i = g.index_of([[lam, 0], [0, 1]])
    gi, gi_inv = g._keys[g_i], g._keys[g.inv(g_i)]
    h01 = g._keys[g.index_of([[1, 5], [0, 1]])]
    assert oracle_product([gi, gi_inv], 25) == (1, 0, 0, 1)
    assert oracle_product([gi, h01, gi_inv], 25) == oracle_power(h01, lam, 25)


def test_borel_shared_numbers():
    g = build_borel_shared_group(5)
    assert len(g) == 250
    assert len(reduction_kernel(g)) == 25
    sub = build_borel_index2_group(5)
    assert len(sub) == 125
    assert set(sub._keys) <= set(g._keys)


def test_borel_disjoint_variants():
    canonical = build_borel_disjoint_group(5)
    assert len(canonical) == 50
    extra = build_borel_disjoint_group(5, variant="extra-diagonal")
    assert len(extra) == 250
    with pytest.raises(InputError):
        build_borel_disjoint_group(5, variant="nonsense")


def test_shared_class_value_formula():
    # Cyclic sector: the classical unipotent pattern; value at sigma is (0,1).
    assert shared_class_value(5, 0, 1) == (0, 1)
    assert [shared_class_value(5, 0, i) for i in range(5)] == [
        (0, 0),
        (0, 1),
        (1, 2),
        (3, 3),
        (1, 4),
    ]
    # Reflection sector is pinned by the dihedral relation.
    assert shared_class_value(5, 1, 0) == (0, 1)
    assert shared_class_value(5, 1, 1) == (0, 0)


def test_borel_shared_witness_bundle():
    g = build_borel_shared_group(5)
    bundle = borel_shared_witness(g)
    w = bundle.witness
    sigma = g.index_of([[6, 1], [10, 6]])
    h = g.index_of([[6, 0], [0, 21]])
    assert w.values[sigma] == (0, 5)
    assert w.values[h] == (0, 0)
    assert is_coboundary(w) is None


def test_witness_recheck_catches_a_normal_form_that_repeats(monkeypatch):
    # Every element sent to the identity of the image: sigma^1 meets sigma^0.
    monkeypatch.setattr(constructions, "image_indices", lambda group, image: array("q", [0] * len(group)))
    with pytest.raises(ConsistencyError, match="normal form hit the same image element twice"):
        borel_shared_witness(build_borel_shared_group(5))


def test_witness_recheck_catches_a_normal_form_that_misses(monkeypatch):
    # An image that is too big, with the reduction map unchecked: the 2p
    # normal forms fill only part of it.
    def larger_image(group):
        return close_group([[[1, 0], [0, -1]], [[1, 1], [0, 1]], [[2, 0], [0, 1]]], ModulusContext(group.ctx.p, 1))

    def reduction(group, image):
        p = group.ctx.p
        return array("q", [image._index[tuple(x % p for x in key)] for key in group._keys])

    monkeypatch.setattr(constructions, "quotient_group", larger_image)
    monkeypatch.setattr(constructions, "image_indices", reduction)
    with pytest.raises(ConsistencyError, match="normal form g\\^i1 sigma\\^i2 missed an image element"):
        borel_shared_witness(build_borel_shared_group(5))


def test_witness_recheck_catches_a_class_table_that_is_no_cocycle(monkeypatch):
    # The cyclic-sector pattern on the reflections too, which the dihedral
    # relation rules out (the naive table of report_borel_shared).
    monkeypatch.setattr(constructions, "shared_class_value", lambda p, i1, i2: shared_class_value(p, 0, i2))
    with pytest.raises(ConsistencyError, match="closed-form class table fails the cocycle identity"):
        borel_shared_witness(build_borel_shared_group(5))


def test_criterion_checker_s3():
    checks = check_nonvanishing_criterion(build_s3_quotient_group(5))
    assert checks.as_tuple() == (True, True, True, True)
    assert checks.fixed_point_free_witness is not None


def test_criterion_checker_cyclic_fails_third():
    checks = check_nonvanishing_criterion(build_cyclic_quotient_group(5))
    # The unitriangular kernel generator has nilpotent displacement, so the
    # third hypothesis fails; this family needs its own non-vanishing proof.
    assert not checks.kernel_displacement_invertible
    g = build_cyclic_quotient_group(5)
    n = kernel_displacement(g, checks.failing_kernel_index)
    a, b, c, d = n
    assert (a * d - b * c) % 5 == 0
    # Every element here is upper triangular with lower-right entry 1 mod p,
    # so det(x - Id) is never a unit and hypothesis 1 fails as well.
    assert not checks.fixed_point_free_element


def _criterion_groups(p):
    """The five construction groups at p; at p = 7, 1 mod 3, the S_3 one is
    the closure of its generators."""
    s3 = build_s3_quotient_group(p) if p % 3 == 2 else close_group(s3_generators(p), ModulusContext(p, 2))
    return [s3, build_cyclic_quotient_group(p), build_borel_shared_group(p), build_borel_index2_group(p),
            build_borel_disjoint_group(p)]


@pytest.mark.parametrize("p", [5, 7])
def test_fixed_point_free_element_matches_kernel_oracle(p):
    """The closed form (det(g - Id) a unit) against kernel_basis(g - Id) = 0
    at every element, and the criterion's witness is the first such element."""
    for g in _criterion_groups(p):
        oracle = [
            kernel_basis(g.ctx, 2, [[a - 1, b], [c, d - 1]]).is_zero() for a, b, c, d in g._keys
        ]
        closed = [_invertible4((a - 1, b, c, d - 1), p) for a, b, c, d in g._keys]
        assert closed == oracle
        checks = check_nonvanishing_criterion(g)
        first = oracle.index(True) if True in oracle else None
        assert checks.fixed_point_free_witness == first
        assert checks.fixed_point_free_element == (first is not None)


def test_criterion_checker_trivial_kernel_reports_reason():
    ctx = ModulusContext(5, 2)
    g = close_group([[[7, 0], [0, 1]]], ctx)
    checks = check_nonvanishing_criterion(g)
    assert not checks.kernel_embeds_in_torsion
    assert "trivial" in checks.explanation


def test_criterion_analogue_fails_for_one_mod_three():
    # p = 7 is 1 mod 3: the kernel family contains a singular displacement
    # at a parameter pair with a^2 - ab + b^2 = 0 mod 7.
    g = close_group(s3_generators(7), ModulusContext(7, 2))
    checks = check_nonvanishing_criterion(g)
    assert not checks.kernel_displacement_invertible
    n = kernel_displacement(g, checks.failing_kernel_index)
    p = 7
    b = (-n[2]) % p
    a = (n[0] + 2 * b) % p
    assert (a * a - a * b + b * b) % p == 0
    assert (a, b) != (0, 0)


def test_decompose_kernel_elements_p5():
    g = build_borel_shared_group(5)
    sigma = g.index_of([[6, 1], [10, 6]])
    kernel = sorted(reduction_kernel(g))
    assert len(kernel) == 25
    for idx in kernel:
        dec = decompose_kernel_element(g, idx, sigma)
        d = g._keys[dec.diagonal_index]
        u = g._keys[dec.unitriangular_index]
        assert d[1] == 0 and d[2] == 0
        assert u[0] == 1 and u[1] == 0 and u[3] == 1
    ident_dec = decompose_kernel_element(g, 0, sigma)
    assert ident_dec == type(ident_dec)(0, 0, 0)
    a, b, c, d = oracle_power(g._keys[sigma], 5, 25)
    sig_p = g.index_of([[a, b], [c, d]])
    dec = decompose_kernel_element(g, sig_p, sigma)
    assert (dec.diagonal_index, dec.unitriangular_index, dec.sigma_p_exponent) == (0, 0, 1)


def _decomposition_case():
    """borel-shared p=5, sigma, and a kernel element tau with a nonzero
    top-right entry whose decomposition has a non-identity diagonal factor
    and a nonzero sigma^p exponent, so that every step of it does work."""
    g = build_borel_shared_group(5)
    sigma = g.index_of([[6, 1], [10, 6]])
    for tau in sorted(reduction_kernel(g)):
        dec = decompose_kernel_element(g, tau, sigma)
        if g._keys[tau][1] and dec.diagonal_index and dec.sigma_p_exponent:
            return g, tau, sigma
    raise AssertionError("no kernel element exercises every step")


def test_decompose_recheck_catches_a_clearing_that_stalls(monkeypatch):
    # Powers of sigma that are all the identity never clear the top-right entry.
    g, tau, sigma = _decomposition_case()
    monkeypatch.setattr(constructions, "_pow4", lambda key, e, q: (1, 0, 0, 1))
    with pytest.raises(ConsistencyError, match="top-right clearing did not terminate"):
        decompose_kernel_element(g, tau, sigma)


def test_decompose_recheck_catches_factors_outside_the_kernel(monkeypatch):
    g, tau, sigma = _decomposition_case()
    monkeypatch.setattr(constructions, "reduction_kernel", lambda group: frozenset({tau}))
    with pytest.raises(ConsistencyError, match="decomposition factors left the kernel"):
        decompose_kernel_element(g, tau, sigma)


def test_decompose_recheck_catches_a_diagonal_left_in_the_second_factor(monkeypatch):
    # An inverse that returns the identity leaves the diagonal part in the
    # second factor.
    g, tau, sigma = _decomposition_case()
    monkeypatch.setattr(constructions, "_inv4", lambda key, q: (1, 0, 0, 1))
    with pytest.raises(ConsistencyError, match="second factor is not lower unitriangular"):
        decompose_kernel_element(g, tau, sigma)


def test_decompose_recheck_catches_a_wrong_period(monkeypatch):
    # Reported with order 1, sigma^p gets the exponent 0, and the factors
    # miss the sigma^p part of tau.
    g, tau, sigma = _decomposition_case()
    sig_p = _pow4(g._keys[sigma], 5, 25)
    order = constructions.element_order
    monkeypatch.setattr(constructions, "element_order",
                        lambda ctx, key: 1 if key == sig_p else order(ctx, key))
    with pytest.raises(ConsistencyError, match="decomposition does not multiply back"):
        decompose_kernel_element(g, tau, sigma)


def test_decompose_rejects_non_kernel_element():
    g = build_borel_shared_group(5)
    sigma = g.index_of([[6, 1], [10, 6]])
    with pytest.raises(InputError):
        decompose_kernel_element(g, sigma, sigma)


def test_restriction_keeps_nontriviality():
    parent = build_borel_shared_group(5)
    sub = build_borel_index2_group(5)
    w = borel_shared_witness(parent).witness
    restricted = restrict_cocycle(w, sub)
    assert is_coboundary(restricted) is None
    assert h1_loc(sub, full_module(sub.ctx)).order > 1


def test_h1loc_verdicts_match_expectations_p5():
    full5 = full_module(ModulusContext(5, 2))
    assert h1_loc(build_s3_quotient_group(5), full5).order > 1
    assert h1_loc(build_cyclic_quotient_group(5), full5).order > 1
    assert h1_loc(build_borel_shared_group(5), full5).order > 1
    assert h1_loc(build_borel_index2_group(5), full5).order > 1
    assert h1_loc(build_borel_disjoint_group(5), full5).order == 1
    assert h1_loc(build_borel_disjoint_group(5, variant="extra-diagonal"), full5).order == 1


def test_witness_classes_have_order_p():
    for builder in (build_s3_quotient_group, build_cyclic_quotient_group, build_borel_shared_group):
        g = builder(5)
        rep = h1_loc(g, full_module(g.ctx))
        assert rep.invariant_factors[0] == 5


def test_disjoint_torsion_action_pattern():
    g = build_borel_disjoint_group(5)
    ctx = g.ctx
    q = ctx.modulus
    gm = g._keys[g.index_of([[-1, 0], [0, 1]])]
    sm = g._keys[g.index_of([[1, 1], [0, 1]])]
    e1, e2 = (5, 0), (0, 5)
    assert _apply4(sm, e1, q) == e1
    assert _apply4(gm, e1, q) == (-5 % q, 0)
    assert _apply4(gm, e2, q) == e2
    assert _apply4(sm, e2, q) == (5, 5)


def test_report_borel_shared_all_checks():
    report = report_borel_shared(borel_shared_witness(build_borel_shared_group(5)))
    assert report.status == "passed"
    names = {c.name for c in report.checks}
    assert "class_table_is_cocycle" in names
    assert "reflection_value_forced_by_relation" in names
    assert "witness_locally_solvable_with_torsion_shape" in names


@pytest.mark.parametrize("p", [5, 7])
def test_solution_sets_match_brute_force(p, monkeypatch):
    # Every (key, b) that the two reports pass to _solution_set, against the
    # brute-force set {v : (x - Id) v = b}.
    calls = []
    original = constructions._solution_set

    def recording(ctx, key, b, *args):
        got = original(ctx, key, b, *args)
        calls.append((ctx, key, b, got))
        return got

    monkeypatch.setattr(constructions, "_solution_set", recording)
    report_borel_shared(borel_shared_witness(build_borel_shared_group(p)))
    report_cyclic_quotient(p)
    assert len(calls) == 4
    for ctx, (a, b, c, d), rhs, got in calls:
        q = ctx.modulus
        brute = [(x, y) for x in range(q) for y in range(q)
                 if (((a - 1) * x + b * y) % q, (c * x + (d - 1) * y) % q) == rhs]
        assert brute and sorted(got) == brute


def test_verify_all_p5_shape():
    reports = verify_all([5])
    assert len(reports) == 5
    assert [r.label for r in reports] == sorted(
        [LABEL_BOREL_DISJOINT, LABEL_BOREL_SHARED, LABEL_BOREL_INDEX2, LABEL_CYCLIC, LABEL_S3]
    )
    assert all(r.status == "passed" for r in reports)


def test_verify_all_p7_skips_s3():
    reports = verify_all([7])
    by_label = {r.label: r for r in reports}
    assert by_label[LABEL_S3].status == "skipped"
    assert by_label[LABEL_S3].skipped_reason
    others = [r for r in reports if r.label != LABEL_S3]
    assert all(r.status == "passed" for r in others)


def test_verify_all_empty():
    assert verify_all([]) == []


def test_verify_all_rejects_bad_prime():
    with pytest.raises(InputError):
        verify_all([4])


@pytest.mark.parametrize("p, closes, systems", [(5, 11, 8), (7, 9, 6)])
def test_verify_all_builds_each_group_and_system_once(p, closes, systems, monkeypatch):
    # Per prime, every distinct group is closed once (the mod-p images
    # included, except the index-2 subgroup's, whose order is |G| / |G(p)|)
    # and every (group, module) pair gets one cocycle system.  The two
    # borel-disjoint variants have the same mod-p image, closed once per
    # variant under its own label, and only the first gets a system.
    closed, built = [], []
    close = groups.close_group

    def counting_close(*args, **kwargs):
        group = close(*args, **kwargs)
        closed.append(group.label)
        return group

    for module in (groups, constructions):
        monkeypatch.setattr(module, "close_group", counting_close)
    init = CocycleSystem.__init__

    def counting_init(self, group, module):
        built.append((group.label, module.label))
        init(self, group, module)

    monkeypatch.setattr(CocycleSystem, "__init__", counting_init)
    verify_all([p])
    assert len(closed) == len(set(closed)) == closes
    assert len(built) == len(set(built)) == systems


def test_report_json_shape():
    report = report_borel_shared(borel_shared_witness(build_borel_shared_group(5)))
    data = report.to_json()
    assert data["label"] == LABEL_BOREL_SHARED
    assert data["status"] == "passed"
    assert data["group_order"] == 250
    assert data["h1loc"]["order"] == 5
    assert all(set(c) == {"name", "passed", "note"} for c in data["checks"])


def test_verify_all_builds_each_kernels_hom_space_once(monkeypatch):
    # The cyclic-quotient report reads hypothesis 3 of the criterion off
    # the kernel it already has, so the hom space of its reduction kernel
    # is built once: for its explicit hom, not again inside the criterion.
    built = []
    homs = constructions.equivariant_homs

    def counting_homs(g, subgroup_indices):
        built.append(g.label)
        return homs(g, subgroup_indices)

    monkeypatch.setattr(constructions, "equivariant_homs", counting_homs)
    reports = {r.label: r for r in verify_all([5])}
    assert sorted(built) == sorted([LABEL_CYCLIC, LABEL_S3])
    crit = check_nonvanishing_criterion(build_cyclic_quotient_group(5))
    (check,) = [c for c in reports[LABEL_CYCLIC].checks if c.name == "criterion_hypothesis_3_fails_here"]
    assert check == ("criterion_hypothesis_3_fails_here", True, f"failing kernel index {crit.failing_kernel_index}")
