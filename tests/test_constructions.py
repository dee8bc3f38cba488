"""Builders, proof-step checks, the criterion checker, and verify_all."""

import pytest

from h1loc import (
    InputError,
    ModMatrix,
    ModulusContext,
    ModVector,
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
)
from conftest import oracle_power, oracle_product


def test_s3_builder_orders_and_relations():
    g = build_s3_quotient_group(5)
    assert len(g) == 150
    tau = g.index_of([[1, -3], [1, -2]])
    sigma = g.index_of([[1, -3], [0, -1]])
    assert element_order(g.matrix(tau)) == 3
    assert element_order(g.matrix(sigma)) == 2
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
    assert all(sub.matrix(i) in g for i in range(len(sub)))


def test_borel_disjoint_variants():
    canonical = build_borel_disjoint_group(5)
    assert len(canonical) == 50
    extra = build_borel_disjoint_group(5, variant="extra-diagonal")
    assert len(extra) == 250
    with pytest.raises(InputError):
        build_borel_disjoint_group(5, variant="nonsense")
    with pytest.raises(InputError):
        build_borel_disjoint_group(5, n=3)


def test_borel_disjoint_rejects_bad_extra_generator():
    ctx = ModulusContext(5, 2)
    not_kernel = ModMatrix.from_rows(ctx, [[2, 0], [0, 1]])
    with pytest.raises(InputError):
        build_borel_disjoint_group(5, extra_kernel_generators=[not_kernel])


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
    assert is_coboundary(g, full_module(g.ctx), w) is None


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
    a, b, c, d = n.entries
    assert (a * d - b * c) % 5 == 0
    # Every element here is upper triangular with lower-right entry 1 mod p,
    # so det(x - Id) is never a unit and hypothesis 1 fails as well.
    assert not checks.fixed_point_free_element


def test_criterion_checker_trivial_kernel_reports_reason():
    ctx = ModulusContext(5, 2)
    g = close_group([[[7, 0], [0, 1]]], ctx)
    checks = check_nonvanishing_criterion(g)
    assert not checks.kernel_embeds_in_torsion
    assert "trivial" in checks.explanation


def test_criterion_analogue_fails_for_one_mod_three():
    # p = 7 is 1 mod 3: the kernel family contains a singular displacement
    # at a parameter pair with a^2 - ab + b^2 = 0 mod 7.
    gens = s3_generators(7)
    g = close_group(gens, gens[0].ctx)
    checks = check_nonvanishing_criterion(g)
    assert not checks.kernel_displacement_invertible
    n = kernel_displacement(g, checks.failing_kernel_index)
    p = 7
    b = (-n.entry(1, 0)) % p
    a = (n.entry(0, 0) + 2 * b) % p
    assert (a * a - a * b + b * b) % p == 0
    assert (a, b) != (0, 0)


def test_decompose_kernel_elements_p5():
    g = build_borel_shared_group(5)
    sigma = g.index_of([[6, 1], [10, 6]])
    kernel = sorted(reduction_kernel(g))
    assert len(kernel) == 25
    for idx in kernel:
        dec = decompose_kernel_element(g, idx, sigma)
        d = g.matrix(dec.diagonal_index)
        u = g.matrix(dec.unitriangular_index)
        assert d.entry(0, 1) == 0 and d.entry(1, 0) == 0
        assert u.entry(0, 0) == 1 and u.entry(0, 1) == 0 and u.entry(1, 1) == 1
    ident_dec = decompose_kernel_element(g, 0, sigma)
    assert ident_dec == type(ident_dec)(0, 0, 0)
    sig_p = g.index_of(ModMatrix(g.ctx, 2, 2, oracle_power(g._keys[sigma], 5, 25)))
    dec = decompose_kernel_element(g, sig_p, sigma)
    assert (dec.diagonal_index, dec.unitriangular_index, dec.sigma_p_exponent) == (0, 0, 1)


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
    assert is_coboundary(sub, full_module(sub.ctx), restricted) is None
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
    gm = g.matrix(g.index_of([[-1, 0], [0, 1]]))
    sm = g.matrix(g.index_of([[1, 1], [0, 1]]))
    e1 = ModVector.make(ctx, [5, 0])
    e2 = ModVector.make(ctx, [0, 5])
    assert sm.vec_mul(e1) == e1
    assert gm.vec_mul(e1) == -e1
    assert gm.vec_mul(e2) == e2
    assert sm.vec_mul(e2) == ModVector.make(ctx, [5, 5])


def test_report_borel_shared_all_checks():
    report = report_borel_shared(5)
    assert report.status == "passed"
    names = {c.name for c in report.checks}
    assert "class_table_is_cocycle" in names
    assert "reflection_value_forced_by_relation" in names
    assert "witness_locally_solvable_with_torsion_shape" in names


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


def test_report_json_shape():
    report = report_borel_shared(5)
    data = report.to_json()
    assert data["label"] == LABEL_BOREL_SHARED
    assert data["status"] == "passed"
    assert data["group_order"] == 250
    assert data["h1loc"]["order"] == 5
    assert all(set(c) == {"name", "passed", "note"} for c in data["checks"])
