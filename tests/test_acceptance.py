"""Acceptance suite: one test per exit criterion.

Modular arithmetic is exact, so every assertion is equality or a strict
order statement; the only tolerances are the per-run wall-clock budgets.
Each criterion reports one PASS/FAIL line in the terminal summary.
"""

import functools
import random
import time

from h1loc import (
    CocycleSystem,
    ModulusContext,
    borel_shared_witness,
    build_borel_disjoint_group,
    build_borel_index2_group,
    build_borel_shared_group,
    build_cyclic_quotient_group,
    build_s3_quotient_group,
    check_nonvanishing_criterion,
    classify_mod_p_group,
    close_group,
    decompose_kernel_element,
    full_module,
    h1_loc,
    howell_from_rows,
    image_indices,
    inflation_restriction_check,
    is_coboundary,
    kernel_basis,
    kernel_displacement,
    necessary_shape_filter,
    power_identity_check,
    quotient_group,
    reduction_kernel,
    restrict_cocycle,
    s3_generators,
    scan_prime_to_p_subgroups,
    shared_class_value,
    verify_cocycle,
)
from h1loc.classify import CASE_BOREL, CASE_CYCLIC, CASE_S3
from h1loc.constructions import torsion_shape_admits
from h1loc.zmod import solve2
from conftest import (
    all_solutions,
    brute_coboundary_tables,
    brute_cocycle_tables,
    brute_local_tables,
    engine_tables,
    mat_vec,
    oracle_power,
    oracle_product,
    record_acceptance,
    reference_solve,
    report_classes,
    verify_cocycle_all_pairs,
)

RUN_BUDGET_SECONDS = 60.0


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record_acceptance(number, name, False)
                raise
            record_acceptance(number, name, True)
            return result

        return run

    return wrap


@criterion(1, "non-vanishing suite")
def test_criterion_1_nonvanishing_suite():
    builders = (
        build_s3_quotient_group,
        build_cyclic_quotient_group,
        build_borel_shared_group,
        build_borel_index2_group,
    )
    for p in (5, 11):
        for builder in builders:
            start = time.monotonic()
            group = builder(p)
            mod = full_module(group.ctx)
            report = h1_loc(group, mod)
            assert report.order > 1, (builder.__name__, p)
            witness = report.witness
            assert witness is not None
            system = CocycleSystem(group, mod)
            assert system.is_local_table(witness)
            assert is_coboundary(witness) is None
            elapsed = time.monotonic() - start
            assert elapsed < RUN_BUDGET_SECONDS, (builder.__name__, p, elapsed)


@criterion(2, "vanishing suite")
def test_criterion_2_vanishing_suite():
    for p in (5, 7, 11):
        for variant in ("canonical", "extra-diagonal"):
            start = time.monotonic()
            group = build_borel_disjoint_group(p, variant=variant)
            report = h1_loc(group, full_module(group.ctx))
            assert report.order == 1, (p, variant, report.order)
            elapsed = time.monotonic() - start
            assert elapsed < RUN_BUDGET_SECONDS, (p, variant, elapsed)


@criterion(3, "explicit witness proof steps at p=5")
def test_criterion_3_proof_step_replication():
    p = 5
    group = build_borel_shared_group(p)
    ctx = group.ctx
    bundle = borel_shared_witness(group)

    # (a) the explicit class table is a genuine cocycle on the mod-p image
    # (the quotient by the reduction kernel), with the classical unipotent
    # values on the cyclic sector.
    assert verify_cocycle(bundle.class_table)
    assert verify_cocycle_all_pairs(bundle.class_table)
    sigma = group.index_of([[1 + p, 1], [2 * p, 1 + p]])
    to_image = image_indices(group, bundle.image)
    idx = 0
    for i2 in range(p):
        value = bundle.class_table.values[to_image[idx]]
        assert value == ((i2 * (i2 - 1) // 2) % p, i2 % p)
        assert value == shared_class_value(p, 0, i2)
        idx = group.mult(idx, sigma)

    # (b) the p-th power identity on 200 random shape tuples.
    rng = random.Random(0)
    q = ctx.modulus
    for _ in range(200):
        assert power_identity_check(
            rng.randrange(q), rng.randrange(q), rng.randrange(q), rng.randrange(q), ctx
        )

    # (c) the witness value is locally a displacement of a vector with
    # p-divisible second coordinate, at every one of the 250 elements (and
    # the 686 at p=7).  The 3x2 system is the oracle of the closed-form
    # check torsion_shape_admits, which must agree with it on the witness
    # and on a shifted value at every element.
    w = bundle.witness
    assert len(group) == 250
    for shape_p in (5, 7):
        shape_group = group if shape_p == p else build_borel_shared_group(shape_p)
        shape_ctx = shape_group.ctx
        shape_w = w if shape_p == p else borel_shared_witness(shape_group).witness
        sq = shape_ctx.modulus
        for i in range(len(shape_group)):
            key = shape_group._keys[i]
            a, b, c, d = key
            system = [[a - 1, b], [c, d - 1], [0, shape_p]]
            v0, v1 = shape_w.values[i]
            assert reference_solve(shape_ctx, system, (v0, v1, 0))[0] is not None, (shape_p, i)
            assert torsion_shape_admits(shape_ctx, key, (v0, v1)), (shape_p, i)
            shifted = (v0, (v1 + 1 + i % shape_p) % sq)
            oracle = reference_solve(shape_ctx, system, (*shifted, 0))[0] is not None
            assert torsion_shape_admits(shape_ctx, key, shifted) == oracle, (shape_p, i)

    # (d) the coboundary obstruction: the value at sigma forces a unit
    # first coordinate while the diagonal kernel element forbids it.
    def minus_identity(index):
        a, b, c, d = group._keys[index]
        return [[a - 1, b], [c, d - 1]]

    sols = all_solutions(ctx, minus_identity(sigma), (0, p))
    assert sols
    assert all(s[0] % p != 0 for s in sols)
    h = group.index_of([[1 + p, 0], [0, 1 - p]])
    hk = all_solutions(ctx, minus_identity(h), (0, 0))
    assert all(s[0] % p == 0 for s in hk)
    assert w.values[h] == (0, 0)
    assert is_coboundary(w) is None


@criterion(4, "non-vanishing criterion hypotheses")
def test_criterion_4_hypothesis_checker():
    for p in (5, 11):
        checks = check_nonvanishing_criterion(build_s3_quotient_group(p))
        assert checks.as_tuple() == (True, True, True, True), p

    # p = 7 analogue: the third hypothesis fails at a parameter pair with
    # a^2 - ab + b^2 = 0 mod 7.
    group = close_group(s3_generators(7), ModulusContext(7, 2))
    checks = check_nonvanishing_criterion(group)
    assert not checks.kernel_displacement_invertible
    n = kernel_displacement(group, checks.failing_kernel_index)
    b = (-n[2]) % 7
    a = (n[0] + 2 * b) % 7
    assert (a, b) != (0, 0)
    assert (a * a - a * b + b * b) % 7 == 0


@criterion(5, "brute-force oracle equivalence")
def test_criterion_5_oracle_equivalence(oracle_instances):
    assert len(oracle_instances) >= 20
    for group, module in oracle_instances:
        assert len(group) <= 8 and module.coeff_modulus ** 2 <= 81
        tables = brute_cocycle_tables(group, module)
        cobs = brute_coboundary_tables(group, module)
        local = brute_local_tables(group, module, tables)
        system = CocycleSystem(group, module)
        assert engine_tables(group, module, system.z1()) == tables
        assert engine_tables(group, module, system.b1()) == cobs
        assert engine_tables(group, module, system.z1_local()) == local
        assert h1_loc(group, module).order == len(local) // len(cobs)


@criterion(6, "exactness and injectivity")
def test_criterion_6_exactness_and_injectivity():
    report = inflation_restriction_check(build_s3_quotient_group(5))
    assert report.kernel_of_restriction == report.image_of_inflation
    assert report.exact

    parent = build_borel_shared_group(5)
    sub = build_borel_index2_group(5)
    system = CocycleSystem(parent, full_module(parent.ctx))
    for rep in report_classes(system, system.h1_loc()):
        restricted = restrict_cocycle(rep, sub)
        if is_coboundary(rep) is None:
            assert is_coboundary(restricted) is None
        else:
            assert is_coboundary(restricted) is not None


@criterion(7, "kernel decomposition round trip")
def test_criterion_7_decomposition_round_trip():
    group = build_borel_shared_group(5)
    sigma = group.index_of([[6, 1], [10, 6]])
    kernel = sorted(reduction_kernel(group))
    assert len(kernel) == 25
    for idx in kernel:
        dec = decompose_kernel_element(group, idx, sigma)
        keys = group._keys
        s_power = oracle_power(keys[sigma], 5 * dec.sigma_p_exponent, 25)
        recomposed = oracle_product([keys[dec.diagonal_index], keys[dec.unitriangular_index], s_power], 25)
        assert recomposed == keys[idx]


@criterion(8, "mod-p scan")
def test_criterion_8_scan():
    entries7 = scan_prime_to_p_subgroups(7)
    assert all(e.verdict.case != CASE_S3 for e in entries7)

    entries5 = scan_prime_to_p_subgroups(5)
    s3_orders = sorted({e.order for e in entries5 if e.verdict.case == CASE_S3})
    assert s3_orders == [3, 6]

    expected = (
        (build_s3_quotient_group, CASE_S3),
        (build_cyclic_quotient_group, CASE_CYCLIC),
        (build_borel_shared_group, CASE_BOREL),
    )
    for builder, case in expected:
        reduced = quotient_group(builder(5))
        assert classify_mod_p_group(reduced).case == case

    # The scan reads each entry's filter off its verdict; the filter run on
    # the group its generators close to stays the oracle.
    scans = {5: entries5, 7: entries7, 11: scan_prime_to_p_subgroups(11), 13: scan_prime_to_p_subgroups(13)}
    for p, entries in scans.items():
        ctx = ModulusContext(p, 1)
        for entry in entries:
            assert entry.shape_filter == necessary_shape_filter(close_group(entry.generators, ctx))
    reduced = quotient_group(build_borel_shared_group(5))
    assert necessary_shape_filter(reduced) == (True, ("borel-order-p-and-order-2",))


@criterion(9, "linear-algebra kernel randomized checks")
def test_criterion_9_linear_algebra_kernel():
    rng = random.Random(1_2026)
    instances = 0
    while instances < 500:
        p = rng.choice([3, 5])
        n = rng.choice([1, 2])
        ctx = ModulusContext(p, n)
        q = ctx.modulus
        dim = rng.choice([2, 3])
        rows = [[rng.randrange(q) for _ in range(dim)] for _ in range(rng.randrange(1, 4))]
        basis = howell_from_rows(ctx, dim, rows)

        # Canonicity under span-preserving rewrites.
        variant = [r[:] for r in rows]
        for _ in range(rng.randrange(1, 5)):
            op = rng.randrange(3)
            if op == 0 and len(variant) > 1:
                i, j = rng.sample(range(len(variant)), 2)
                c = rng.randrange(q)
                variant[i] = [(x + c * y) % q for x, y in zip(variant[i], variant[j])]
            elif op == 1:
                i = rng.randrange(len(variant))
                u = rng.choice([u for u in range(1, q) if u % p])
                variant[i] = [(u * x) % q for x in variant[i]]
            else:
                rng.shuffle(variant)
        assert howell_from_rows(ctx, dim, variant) == basis

        # Solver soundness and completeness against construction.
        x0 = [rng.randrange(q) for _ in range(dim)]
        b = tuple(sum(r[j] * x0[j] for j in range(dim)) % q for r in rows)
        solution, kernel = reference_solve(ctx, rows, b)
        assert solution is not None
        assert mat_vec(ctx, rows, solution) == b
        diff = [s - t for s, t in zip(x0, solution)]
        assert howell_from_rows(ctx, dim, kernel).contains(diff)
        if len(rows) == dim == 2:
            assert solve2(ctx, (*rows[0], *rows[1]), b) is not None

        # Dual constraints round-trip.
        assert kernel_basis(ctx, dim, kernel_basis(ctx, dim, basis.rows).rows) == basis
        instances += 1
