"""Linear algebra over Z/p^n: canonical forms, solvers, duals, quotients."""

import itertools
import random

import pytest

from h1loc import (
    ConsistencyError,
    ContainmentError,
    DimensionError,
    InputError,
    LinearSolver,
    ModMatrix,
    ModulusContext,
    ModVector,
    dual_constraints,
    full_basis,
    howell_form,
    howell_from_rows,
    image_basis,
    is_prime,
    kernel_basis,
    quotient_invariants,
    quotient_structure,
    solve_linear,
)
from h1loc.zmod import _howell_raw

CTX25 = ModulusContext(5, 2)


def mat(rows, ctx=CTX25):
    return ModMatrix.from_rows(ctx, rows)


def vec(coords, ctx=CTX25):
    return ModVector.make(ctx, coords)


def span_set(rows, ctx):
    """Row span by naive closure, for ground truth on small instances."""
    q = ctx.modulus
    dim = len(rows[0]) if rows else 0
    out = {(0,) * dim}
    for combo in itertools.product(*(range(q) for _ in rows)):
        acc = [0] * dim
        for c, r in zip(combo, rows):
            for j in range(dim):
                acc[j] = (acc[j] + c * r[j]) % q
        out.add(tuple(acc))
    return out


def test_modulus_context_validation():
    ModulusContext(3, 1)
    with pytest.raises(InputError):
        ModulusContext(4, 2)
    with pytest.raises(InputError):
        ModulusContext(2, 2)
    with pytest.raises(InputError):
        ModulusContext(5, 0)
    with pytest.raises(InputError):
        ModulusContext(3, 50)  # exceeds the word-size bound


def test_valuation_split():
    assert CTX25.valuation(10) == (1, 2)
    assert CTX25.valuation(0) == (2, 1)
    assert CTX25.valuation(7) == (0, 7)


def test_howell_identity_is_fixed():
    m = mat([[1, 0], [0, 1]])
    assert [r.coords for r in howell_form(m).rows] == [(1, 0), (0, 1)]


def test_howell_p_scaled_identity():
    m = mat([[5, 0], [0, 5]])
    assert [r.coords for r in howell_form(m).rows] == [(5, 0), (0, 5)]


def test_howell_reduces_mixed_rows():
    got = howell_form(mat([[5, 10], [0, 5]]))
    assert [r.coords for r in got.rows] == [(5, 0), (0, 5)]
    assert span_set([[5, 10], [0, 5]], CTX25) == span_set([[5, 0], [0, 5]], CTX25)


def test_howell_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        rows = [[rng.randrange(25) for _ in range(3)] for _ in range(rng.randrange(1, 4))]
        first = howell_form(mat(rows))
        again = howell_from_rows(CTX25, 3, first.raw_rows())
        assert first == again


def test_howell_canonical_on_equal_spans():
    # Span-preserving rewrites must not change the basis.
    rng = random.Random(20260808)
    for trial in range(500):
        p = rng.choice([3, 5])
        n = rng.choice([1, 2])
        ctx = ModulusContext(p, n)
        q = ctx.modulus
        dim = rng.choice([2, 3])
        rows = [[rng.randrange(q) for _ in range(dim)] for _ in range(rng.randrange(1, 4))]
        variant = [r[:] for r in rows]
        for _ in range(rng.randrange(1, 6)):
            op = rng.randrange(4)
            if op == 0 and len(variant) > 1:
                i, j = rng.sample(range(len(variant)), 2)
                c = rng.randrange(q)
                variant[i] = [(a + c * b) % q for a, b in zip(variant[i], variant[j])]
            elif op == 1:
                i = rng.randrange(len(variant))
                u = rng.choice([u for u in range(1, q) if u % p])
                variant[i] = [(u * a) % q for a in variant[i]]
            elif op == 2:
                rng.shuffle(variant)
            else:
                combo = [0] * dim
                for r in variant:
                    c = rng.randrange(q)
                    combo = [(a + c * b) % q for a, b in zip(combo, r)]
                variant.append(combo)
        assert howell_from_rows(ctx, dim, rows) == howell_from_rows(ctx, dim, variant)
        if trial % 10 == 0 and q**dim <= 625 * 3:
            assert span_set(rows, ctx) == span_set(variant, ctx)


def test_span_enumeration_counts():
    rng = random.Random(11)
    for _ in range(25):
        rows = [[rng.randrange(25) for _ in range(2)] for _ in range(rng.randrange(1, 3))]
        basis = howell_from_rows(CTX25, 2, rows)
        seen = {v.coords for v in basis.enumerate_span()}
        assert len(seen) == basis.span_size()
        assert seen == span_set(rows, CTX25)


def test_solve_diagonal_congruence_classes():
    # (h - Id) x = (p, 0) for the diagonal kernel generator: the solution
    # set pins the first coordinate to 1 mod p and the second to 0 mod p.
    a = mat([[5, 0], [0, 20]])
    sol = solve_linear(a, vec([5, 0]))
    assert sol.solvable
    sols = list(sol.all_solutions())
    brute = [
        (x, y) for x in range(25) for y in range(25) if (5 * x) % 25 == 5 and (20 * y) % 25 == 0
    ]
    assert sorted(s.coords for s in sols) == sorted(brute)
    assert all(s.coords[0] % 5 == 1 and s.coords[1] % 5 == 0 for s in sols)


def test_solve_identity_and_zero_matrix():
    sol = solve_linear(ModMatrix.identity(CTX25, 2), vec([7, 11]))
    assert sol.solution.coords == (7, 11)
    assert sol.kernel.is_zero()

    zero = ModMatrix.zeros(CTX25, 2, 2)
    no = solve_linear(zero, vec([1, 0]))
    assert not no.solvable
    assert no.kernel == full_basis(CTX25, 2)


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve_linear(mat([[1, 0], [0, 1]]), vec([1, 2, 3]))


def test_solver_random_soundness_and_completeness():
    rng = random.Random(99)
    for _ in range(500):
        p = rng.choice([3, 5])
        n = rng.choice([1, 2])
        ctx = ModulusContext(p, n)
        q = ctx.modulus
        rows_n = rng.choice([2, 3])
        a = ModMatrix.from_rows(ctx, [[rng.randrange(q) for _ in range(2)] for _ in range(rows_n)])
        b = ModVector.make(ctx, [rng.randrange(q) for _ in range(rows_n)])
        sol = solve_linear(a, b)
        brute = [
            (x, y)
            for x in range(q)
            for y in range(q)
            if all(
                (a.entry(i, 0) * x + a.entry(i, 1) * y) % q == b.coords[i] for i in range(rows_n)
            )
        ]
        if sol.solvable:
            assert a.vec_mul(sol.solution) == b
            assert sorted(s.coords for s in sol.all_solutions()) == sorted(brute)
        else:
            assert not brute


def test_image_basis_examples():
    sigma_minus_id = mat([[5, 1], [10, 5]])
    img = image_basis(sigma_minus_id)
    assert img.contains(vec([0, 5]))

    assert image_basis(ModMatrix.identity(CTX25, 2)) == full_basis(CTX25, 2)

    scaled = image_basis(ModMatrix.identity(CTX25, 2).scale(5))
    assert scaled.span_size() == 25


def test_membership_examples():
    pv = howell_form(mat([[5, 0], [0, 5]]))
    assert pv.contains(vec([5, 20]))
    assert not pv.contains(vec([1, 0]))
    img = image_basis(mat([[5, 1], [10, 5]]))
    enumerated = {v.coords for v in img.enumerate_span()}
    assert (0, 5) in enumerated


def test_membership_matches_enumeration_randomized():
    rng = random.Random(5)
    for _ in range(60):
        rows = [[rng.randrange(25) for _ in range(2)] for _ in range(rng.randrange(1, 3))]
        basis = howell_from_rows(CTX25, 2, rows)
        enumerated = {v.coords for v in basis.enumerate_span()}
        for _ in range(20):
            v = vec([rng.randrange(25), rng.randrange(25)])
            assert basis.contains(v) == (v.coords in enumerated)


def test_quotient_invariants_examples():
    full = full_basis(CTX25, 2)
    pv = howell_form(mat([[5, 0], [0, 5]]))
    zero = howell_from_rows(CTX25, 2, [])
    assert quotient_invariants(full, zero) == [25, 25]
    assert quotient_invariants(full, pv) == [5, 5]
    assert quotient_invariants(pv, zero) == [5, 5]


def test_quotient_invariants_product_matches_enumerated_index():
    rng = random.Random(17)
    for _ in range(40):
        ctx = ModulusContext(3, 2)
        big_rows = [[rng.randrange(9) for _ in range(2)] for _ in range(rng.randrange(1, 3))]
        big = howell_from_rows(ctx, 2, big_rows)
        if big.is_zero():
            continue
        # A random submodule of big: multiples of its rows.
        small_rows = [[(3 * c) % 9 for c in r] for r in big.raw_rows()]
        small = howell_from_rows(ctx, 2, small_rows)
        inv = quotient_invariants(big, small)
        prod = 1
        for d in inv:
            prod *= d
        assert prod == big.span_size() // small.span_size()


def test_quotient_structure_generators_have_stated_orders():
    full = full_basis(CTX25, 2)
    pv = howell_form(mat([[5, 0], [0, 5]]))
    structure = quotient_structure(full, pv)
    assert [d for d, _ in structure] == [5, 5]
    for d, g in structure:
        assert not pv.contains(g)
        assert pv.contains(g.scale(d))


def test_quotient_containment_error():
    pv = howell_form(mat([[5, 0], [0, 5]]))
    with pytest.raises(ContainmentError):
        quotient_invariants(pv, full_basis(CTX25, 2))


def test_dual_constraints_examples():
    pv = howell_form(mat([[5, 0], [0, 5]]))
    k = dual_constraints(pv)
    assert k.row_lists() == [[5, 0], [0, 5]]

    full = full_basis(CTX25, 2)
    kf = dual_constraints(full)
    assert all(e == 0 for e in kf.entries)

    line = howell_form(mat([[5, 0]]))
    kl = dual_constraints(line)
    expected = {(x, y) for x in range(25) for y in range(25) if x % 5 == 0 and y == 0}
    got = {
        (x, y)
        for x in range(25)
        for y in range(25)
        if all(
            (kl.entry(i, 0) * x + kl.entry(i, 1) * y) % 25 == 0 for i in range(kl.rows)
        )
    }
    assert got == expected


def test_dual_constraints_round_trip_randomized():
    rng = random.Random(2024)
    for _ in range(500):
        p = rng.choice([3, 5])
        n = rng.choice([1, 2])
        ctx = ModulusContext(p, n)
        q = ctx.modulus
        dim = rng.choice([2, 3])
        rows = [[rng.randrange(q) for _ in range(dim)] for _ in range(rng.randrange(0, 3))]
        basis = howell_from_rows(ctx, dim, rows)
        k = dual_constraints(basis)
        assert kernel_basis(k) == basis


def test_kernel_basis_multiplication_by_p():
    k = kernel_basis(ModMatrix.identity(CTX25, 2).scale(5))
    assert [r.coords for r in k.rows] == [(5, 0), (0, 5)]


def test_degenerate_shapes():
    empty = ModMatrix.from_rows(CTX25, [])
    assert howell_form(empty).rows == ()
    tall = ModMatrix(CTX25, 0, 3, ())
    assert kernel_basis(tall) == full_basis(CTX25, 3)


def test_matrix_json_round_trip():
    m = mat([[1, -3], [1, -2]])
    data = m.to_json()
    assert data == {"p": 5, "n": 2, "rows": [[1, 22], [1, 23]]}
    assert ModMatrix.from_json(data) == m


def test_vector_additive_order():
    assert vec([5, 0]).additive_order() == 5
    assert vec([1, 5]).additive_order() == 25
    assert vec([0, 0]).additive_order() == 1


def _reference_solve(a, b):
    """Single-use reference for LinearSolver: one Howell form of [a^T | Id]
    per call, then one reduction of b, with nothing kept between calls."""
    ctx = a.ctx
    q = ctx.modulus
    m, ncols = a.rows, a.cols
    aug = []
    for j in range(ncols):
        row = [a.entry(i, j) for i in range(m)]
        row.extend(1 if k == j else 0 for k in range(ncols))
        aug.append(row)
    h = _howell_raw(aug, m + ncols, ctx)
    bb = list(b.coords)
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


def test_linear_solver_matches_single_use_reference():
    rng = random.Random(2024)
    solvable_seen = unsolvable_seen = 0
    for _ in range(300):
        p = rng.choice([3, 5, 7])
        n = rng.choice([1, 2, 3])
        ctx = ModulusContext(p, n)
        q = ctx.modulus
        rows_n, cols_n = rng.choice([(2, 2), (3, 3), (2, 3), (3, 2), (4, 2), (1, 3)])
        # Entries skewed towards multiples of p, so valuations vary.
        a = ModMatrix.from_rows(
            ctx, [[rng.randrange(q) * p ** rng.randrange(n + 1) for _ in range(cols_n)] for _ in range(rows_n)]
        )
        solver = LinearSolver(a)
        for _ in range(4):
            if rng.random() < 0.5:
                b = a.vec_mul(ModVector.make(ctx, [rng.randrange(q) for _ in range(cols_n)]))
            else:
                b = ModVector.make(ctx, [rng.randrange(q) for _ in range(rows_n)])
            want_sol, want_kernel = _reference_solve(a, b)
            for got in (solver.solve(b), solve_linear(a, b)):
                assert got.solvable == (want_sol is not None)
                assert (got.solution.coords if got.solvable else None) == want_sol
                assert [r.coords for r in got.kernel.rows] == want_kernel
            if want_sol is None:
                unsolvable_seen += 1
            else:
                solvable_seen += 1
    assert solvable_seen > 300 and unsolvable_seen > 100


def test_linear_solver_recheck_raises_consistency_error():
    a = mat([[5, 0], [0, 20]])
    solver = LinearSolver(a)
    # Corrupt the cached coefficients: the reduction still succeeds, so the
    # wrong solution can only be caught by the re-check against a x = b.
    col, piv, left, coeffs = solver._image[0]
    solver._image[0] = (col, piv, left, [(c + 1) % 25 for c in coeffs])
    with pytest.raises(ConsistencyError):
        solver.solve(vec([5, 0]))


def _is_prime_by_trial_division(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert all(is_prime(m) == _is_prime_by_trial_division(m) for m in range(10**5))
    # Strong pseudoprimes to base 2, and to bases 2, 3, 5 and 7.
    for m in (2047, 3215031751):
        assert not _is_prime_by_trial_division(m)
        assert not is_prime(m)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime((2**31 - 1) * (2**61 - 1))
