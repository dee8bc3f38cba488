"""Linear algebra over Z/p^n: canonical forms, the 2x2 solve and its
reference solver, duals, quotients."""

import itertools
import random

import pytest

from h1loc import (
    ConsistencyError,
    ContainmentError,
    DimensionError,
    InputError,
    ModulusContext,
    howell_from_rows,
    is_prime,
    kernel_basis,
    quotient_structure,
)
from h1loc import zmod
from h1loc.zmod import solve2
from conftest import all_solutions, mat_vec, reference_solve

CTX25 = ModulusContext(5, 2)


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
    assert list(howell_from_rows(CTX25, 2, [[1, 0], [0, 1]]).rows) == [(1, 0), (0, 1)]


def test_howell_p_scaled_identity():
    assert list(howell_from_rows(CTX25, 2, [[5, 0], [0, 5]]).rows) == [(5, 0), (0, 5)]


def test_howell_reduces_mixed_rows():
    got = howell_from_rows(CTX25, 2, [[5, 10], [0, 5]])
    assert list(got.rows) == [(5, 0), (0, 5)]
    assert span_set([[5, 10], [0, 5]], CTX25) == span_set([[5, 0], [0, 5]], CTX25)


def test_howell_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        rows = [[rng.randrange(25) for _ in range(3)] for _ in range(rng.randrange(1, 4))]
        first = howell_from_rows(CTX25, 3, rows)
        again = howell_from_rows(CTX25, 3, first.rows)
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
        seen = set(basis.enumerate_span())
        assert len(seen) == basis.span_size()
        assert seen == span_set(rows, CTX25)


def test_solve_diagonal_congruence_classes():
    # (h - Id) x = (p, 0) for the diagonal kernel generator: the solution
    # set pins the first coordinate to 1 mod p and the second to 0 mod p.
    a = [[5, 0], [0, 20]]
    sols = all_solutions(CTX25, a, (5, 0))
    brute = [
        (x, y) for x in range(25) for y in range(25) if (5 * x) % 25 == 5 and (20 * y) % 25 == 0
    ]
    assert sorted(sols) == sorted(brute)
    assert all(s[0] % 5 == 1 and s[1] % 5 == 0 for s in sols)
    assert solve2(CTX25, (5, 0, 0, 20), (5, 0)) in brute


def test_solve_identity_and_zero_matrix():
    assert reference_solve(CTX25, [[1, 0], [0, 1]], (7, 11)) == ((7, 11), [])
    assert solve2(CTX25, (1, 0, 0, 1), (7, 11)) == (7, 11)

    solution, kernel = reference_solve(CTX25, [[0, 0], [0, 0]], (1, 0))
    assert solution is None
    assert howell_from_rows(CTX25, 2, kernel) == kernel_basis(CTX25, 2, [])
    assert solve2(CTX25, (0, 0, 0, 0), (1, 0)) is None
    assert solve2(CTX25, (0, 0, 0, 0), (0, 0)) == (0, 0)


def test_solve_dimension_mismatch():
    basis = kernel_basis(CTX25, 2, [])
    for wrong in ((1,), (1, 2, 3)):
        with pytest.raises(DimensionError):
            basis.reduce(wrong)
        with pytest.raises(DimensionError):
            basis.contains(wrong)


def test_unreduced_entries_give_the_answers_of_their_reductions():
    # Vectors are plain int tuples, reduced modulo q on entry: entries that
    # are negative or >= q must behave as their residues.
    rng = random.Random(125)
    seen = set()
    for ctx in (CTX25, ModulusContext(5, 3)):
        q = ctx.modulus
        for _ in range(150):
            a = [[rng.randrange(q) * 5 ** rng.randrange(ctx.n + 1) % q for _ in range(2)] for _ in range(2)]
            key = (*a[0], *a[1])
            basis = howell_from_rows(ctx, 2, zip(*a))  # the column span of a
            v = (rng.randrange(q), rng.randrange(q))
            if rng.random() < 0.5:
                v = mat_vec(ctx, a, v)
            w = tuple(x + q * rng.choice((-3, -1, 1, 2)) for x in v)
            assert basis.reduce(w) == basis.reduce(v)
            assert basis.contains(w) == basis.contains(v)
            assert solve2(ctx, key, w) == solve2(ctx, key, v)
            assert solve2(ctx, tuple(x - q for x in key), v) == solve2(ctx, key, v)
            seen.add(basis.contains(v))
    assert seen == {True, False}


def test_solver_random_soundness_and_completeness():
    rng = random.Random(99)
    for _ in range(500):
        p = rng.choice([3, 5])
        n = rng.choice([1, 2])
        ctx = ModulusContext(p, n)
        q = ctx.modulus
        rows_n = rng.choice([2, 3])
        a = [[rng.randrange(q) for _ in range(2)] for _ in range(rows_n)]
        b = tuple(rng.randrange(q) for _ in range(rows_n))
        solution, _ = reference_solve(ctx, a, b)
        brute = [
            (x, y)
            for x in range(q)
            for y in range(q)
            if all(
                (a[i][0] * x + a[i][1] * y) % q == b[i] for i in range(rows_n)
            )
        ]
        if solution is not None:
            assert mat_vec(ctx, a, solution) == b
        assert sorted(all_solutions(ctx, a, b)) == sorted(brute)


def test_membership_examples():
    pv = howell_from_rows(CTX25, 2, [[5, 0], [0, 5]])
    assert pv.contains((5, 20))
    assert not pv.contains((1, 0))
    img = howell_from_rows(CTX25, 2, [[5, 10], [1, 5]])
    enumerated = set(img.enumerate_span())
    assert (0, 5) in enumerated


def test_membership_matches_enumeration_randomized():
    rng = random.Random(5)
    for _ in range(60):
        rows = [[rng.randrange(25) for _ in range(2)] for _ in range(rng.randrange(1, 3))]
        basis = howell_from_rows(CTX25, 2, rows)
        enumerated = set(basis.enumerate_span())
        for _ in range(20):
            v = (rng.randrange(25), rng.randrange(25))
            assert basis.contains(v) == (v in enumerated)


def _invariants(big, small):
    return [d for d, _ in quotient_structure(big, small)]


def test_quotient_invariants_examples():
    full = kernel_basis(CTX25, 2, [])
    pv = howell_from_rows(CTX25, 2, [[5, 0], [0, 5]])
    zero = howell_from_rows(CTX25, 2, [])
    assert _invariants(full, zero) == [25, 25]
    assert _invariants(full, pv) == [5, 5]
    assert _invariants(pv, zero) == [5, 5]


def test_quotient_invariants_product_matches_enumerated_index():
    rng = random.Random(17)
    for _ in range(40):
        ctx = ModulusContext(3, 2)
        big_rows = [[rng.randrange(9) for _ in range(2)] for _ in range(rng.randrange(1, 3))]
        big = howell_from_rows(ctx, 2, big_rows)
        if big.is_zero():
            continue
        # A random submodule of big: multiples of its rows.
        small_rows = [[(3 * c) % 9 for c in r] for r in big.rows]
        small = howell_from_rows(ctx, 2, small_rows)
        inv = _invariants(big, small)
        prod = 1
        for d in inv:
            prod *= d
        assert prod == big.span_size() // small.span_size()


def test_quotient_structure_generators_have_stated_orders():
    full = kernel_basis(CTX25, 2, [])
    pv = howell_from_rows(CTX25, 2, [[5, 0], [0, 5]])
    structure = quotient_structure(full, pv)
    assert [d for d, _ in structure] == [5, 5]
    for d, g in structure:
        assert not pv.contains(g)
        assert pv.contains(tuple(d * x for x in g))


def test_quotient_containment_error():
    pv = howell_from_rows(CTX25, 2, [[5, 0], [0, 5]])
    with pytest.raises(ContainmentError):
        quotient_structure(pv, kernel_basis(CTX25, 2, []))


def test_dual_constraints_examples():
    # The annihilator of a submodule is the kernel of its basis rows.
    pv = howell_from_rows(CTX25, 2, [[5, 0], [0, 5]])
    k = kernel_basis(CTX25, 2, pv.rows).rows
    assert k == ((5, 0), (0, 5))

    # The annihilator of the full module is zero: no rows.
    assert kernel_basis(CTX25, 2, kernel_basis(CTX25, 2, []).rows).rows == ()

    line = howell_from_rows(CTX25, 2, [[5, 0]])
    kl = kernel_basis(CTX25, 2, line.rows).rows
    expected = {(x, y) for x in range(25) for y in range(25) if x % 5 == 0 and y == 0}
    got = {
        (x, y)
        for x in range(25)
        for y in range(25)
        if all((k0 * x + k1 * y) % 25 == 0 for k0, k1 in kl)
    }
    assert got == expected


def test_dual_constraints_round_trip_randomized():
    # Z/p^n is self-injective: the double annihilator of a submodule is
    # the submodule itself.
    rng = random.Random(2024)
    for _ in range(500):
        p = rng.choice([3, 5])
        n = rng.choice([1, 2])
        ctx = ModulusContext(p, n)
        q = ctx.modulus
        dim = rng.choice([2, 3])
        rows = [[rng.randrange(q) for _ in range(dim)] for _ in range(rng.randrange(0, 3))]
        basis = howell_from_rows(ctx, dim, rows)
        k = kernel_basis(ctx, dim, basis.rows).rows
        assert kernel_basis(ctx, dim, k) == basis


def test_kernel_basis_multiplication_by_p():
    k = kernel_basis(CTX25, 2, [[5, 0], [0, 5]])
    assert list(k.rows) == [(5, 0), (0, 5)]


def test_degenerate_shapes():
    assert howell_from_rows(CTX25, 0, []).rows == ()
    # A 0x3 matrix: no rows, three columns; its kernel is everything.
    assert kernel_basis(CTX25, 3, []) == howell_from_rows(CTX25, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_row_taking_functions_check_the_width():
    # Each row must have as many entries as the matrix has columns; a
    # mismatch in either direction is refused, not silently padded or cut.
    for rows, width in (([[1, 2, 3], [0, 5]], 2), ([[1, 2], [0, 5]], 3)):
        with pytest.raises(DimensionError):
            howell_from_rows(CTX25, width, rows)
        with pytest.raises(DimensionError):
            kernel_basis(CTX25, width, rows)


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


# ---------------------------------------------------------------------------
# Each re-check fires when the computation it guards is broken.


def test_quotient_structure_catches_a_relation_outside_the_small_span(monkeypatch):
    # The relations of V / pV are the kernel rows (5, 0, 1, 0) and
    # (0, 5, 0, 1) of [I | -5 I]; a kernel routine that bumps one entry
    # yields the relation (6, 0), and 6 * (1, 0) is not in pV.
    full = kernel_basis(CTX25, 2, [])
    pv = howell_from_rows(CTX25, 2, [[5, 0], [0, 5]])
    real = zmod._kernel_raw

    def bumped(rows, ncols, ctx):
        out = real(rows, ncols, ctx)
        out[0][0] += 1
        return out

    monkeypatch.setattr(zmod, "_kernel_raw", bumped)
    with pytest.raises(ConsistencyError, match="a relation row does not map big into span"):
        quotient_structure(full, pv)


def _corrupt_smith(monkeypatch, corrupt):
    real = zmod._smith_diag_with_vinv

    def corrupted(rel, r):
        diag, vinv = real(rel, r)
        return corrupt(diag), vinv

    monkeypatch.setattr(zmod, "_smith_diag_with_vinv", corrupted)


def test_quotient_structure_catches_a_lost_smith_factor(monkeypatch):
    # The relation lattice holds q Z^r, so its Smith form has no zero on the
    # diagonal; a diagonalisation that loses a factor leaves one.
    full = kernel_basis(CTX25, 2, [])
    pv = howell_from_rows(CTX25, 2, [[5, 0], [0, 5]])
    _corrupt_smith(monkeypatch, lambda diag: diag[:-1] + [0])
    with pytest.raises(ConsistencyError, match="relation lattice unexpectedly not of full rank"):
        quotient_structure(full, pv)


def test_quotient_structure_catches_a_wrong_smith_factor(monkeypatch):
    # V / pV has index 25; a diagonal entry off by a factor p makes the
    # invariant factors multiply to 125.
    full = kernel_basis(CTX25, 2, [])
    pv = howell_from_rows(CTX25, 2, [[5, 0], [0, 5]])
    _corrupt_smith(monkeypatch, lambda diag: [5 * diag[0]] + diag[1:])
    with pytest.raises(ConsistencyError, match="invariant factor product 125 != index 25"):
        quotient_structure(full, pv)
