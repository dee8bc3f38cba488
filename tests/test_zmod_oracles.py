"""Independent oracles for zmod: hypothesis properties of the Howell form,
kernels and the solver, and sympy's invariant factors for the Smith step."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

from h1loc import (
    ModulusContext,
    build_borel_disjoint_group,
    build_borel_index2_group,
    build_borel_shared_group,
    build_cyclic_quotient_group,
    build_s3_quotient_group,
    full_module,
    h1,
    h1_loc,
    howell_from_rows,
    kernel_basis,
    quotient_structure,
    torsion_module,
)
from h1loc import zmod
from conftest import dual_constraint_relations, mat_vec, reference_solve

# Deterministic and stateless: the same examples on every run, and no
# example database written to disk (conftest.py moves hypothesis's other
# cache out of the tree).
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

CONTEXTS = [ModulusContext(p, n) for p, n in ((3, 1), (3, 3), (5, 1), (5, 2), (7, 2))]


@st.composite
def matrices(draw, max_rows=4, max_cols=4):
    ctx = draw(st.sampled_from(CONTEXTS))
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entry = st.integers(0, ctx.modulus - 1)
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return ctx, data


@st.composite
def unimodular_recombination(draw, ctx, m):
    """The rows of U m for a product U of elementary invertible row operations
    over ctx; m, a list of rows, is left as it is."""
    q = ctx.modulus
    rows = list(m)
    n = len(rows)
    ops = draw(st.lists(st.tuples(st.sampled_from(("swap", "add", "unit")), st.integers(0, n - 1),
                                  st.integers(0, n - 1), st.integers(1, q - 1)), max_size=12))
    for op, i, j, c in ops:
        if op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "add" and i != j:
            rows[i] = [(a + c * b) % q for a, b in zip(rows[i], rows[j])]
        elif op == "unit" and c % ctx.p:
            rows[i] = [(c * a) % q for a in rows[i]]
    return rows


@PROPERTY
@given(st.data())
def test_howell_form_is_invariant_under_unimodular_recombination(data):
    ctx, m = data.draw(matrices())
    mixed = data.draw(unimodular_recombination(ctx, m))
    cols = len(m[0])
    assert howell_from_rows(ctx, cols, mixed) == howell_from_rows(ctx, cols, m)


@PROPERTY
@given(matrices())
def test_kernel_and_image_sizes_multiply_to_the_domain(matrix):
    ctx, m = matrix
    cols = len(m[0])
    ker = kernel_basis(ctx, cols, m)
    assert all(not any(mat_vec(ctx, m, v)) for v in ker.rows)
    image = howell_from_rows(ctx, len(m), zip(*m))  # the column span of m
    assert ker.span_size() * image.span_size() == ctx.modulus ** cols


@PROPERTY
@given(st.data())
def test_linear_solver_round_trip(data):
    ctx, a = data.draw(matrices())
    cols = len(a[0])
    x = data.draw(st.lists(st.integers(0, ctx.modulus - 1), min_size=cols, max_size=cols))
    b = mat_vec(ctx, a, x)
    solution, kernel = reference_solve(ctx, a, b)
    assert solution is not None
    assert mat_vec(ctx, a, solution) == b
    assert howell_from_rows(ctx, cols, kernel).contains([s - t for s, t in zip(x, solution)])


# ---------------------------------------------------------------------------
# Smith step against sympy.


def _sympy_factors(rel):
    return [abs(f) for f in invariant_factors(Matrix(rel), domain=ZZ) if abs(f) > 1]


def _smith_factors(rel, r):
    diag, _ = zmod._smith_diag_with_vinv(rel, r)
    return [d for d in diag if d > 1]


CONSTRUCTION_BUILDERS = (
    build_s3_quotient_group,
    build_cyclic_quotient_group,
    build_borel_shared_group,
    build_borel_index2_group,
    build_borel_disjoint_group,
)


def test_smith_step_matches_sympy_on_cohomology_lattices(monkeypatch):
    # Record the relation lattices quotient_structure really builds for H^1
    # and H^1_loc of the p=5 construction groups on V and V[p].
    real = zmod._smith_diag_with_vinv
    seen = []

    def recording(rel, r):
        seen.append(([row[:] for row in rel], r))
        return real(rel, r)

    monkeypatch.setattr(zmod, "_smith_diag_with_vinv", recording)
    for builder in CONSTRUCTION_BUILDERS:
        g = builder(5)
        for module in (full_module(g.ctx), torsion_module(g.ctx)):
            h1(g, module)
            h1_loc(g, module)
    monkeypatch.undo()
    assert len(seen) >= 2 * 2 * len(CONSTRUCTION_BUILDERS)
    assert any(_sympy_factors(rel) for rel, _ in seen)
    for rel, r in seen:
        assert _smith_factors(rel, r) == _sympy_factors(rel)


def _random_lattice(rng: random.Random):
    r = rng.randint(1, 5)
    if rng.random() < 0.5:
        # The shape quotient_structure builds: kernel rows mod q, then q Id.
        q = rng.choice((4, 8, 9, 25, 27, 49, 125))
        rel = [[rng.randrange(q) for _ in range(r)] for _ in range(rng.randint(0, 4))]
        rel.extend([q if i == j else 0 for j in range(r)] for i in range(r))
    else:
        # Small signed entries, rows possibly redundant.
        rel = [[rng.randint(-12, 12) for _ in range(r)] for _ in range(r + rng.randint(0, 3))]
    return rel, r


@pytest.mark.parametrize("seed", range(8))
def test_smith_step_matches_sympy_on_random_lattices(seed):
    rng = random.Random(seed)
    tested = 0
    while tested < 25:
        rel, r = _random_lattice(rng)
        if Matrix(rel).rank() < r:
            continue
        assert _smith_factors(rel, r) == _sympy_factors(rel)
        tested += 1


# ---------------------------------------------------------------------------
# The relations quotient_structure builds against the dual-constraint route.


def test_quotient_relations_match_the_dual_constraint_route(monkeypatch):
    # 200 seeded pairs small in big over Z/p^n: big spans random rows, and
    # small random combinations of big's rows, some times p.  The relation
    # rows are the part of the Smith input above the q Id block.
    real = zmod._smith_diag_with_vinv
    seen = []

    def recording(rel, r):
        seen.append([row[:] for row in rel[:len(rel) - r]])
        return real(rel, r)

    monkeypatch.setattr(zmod, "_smith_diag_with_vinv", recording)
    rng = random.Random(31)
    tested = 0
    while tested < 200:
        ctx = ModulusContext(rng.choice((3, 5, 7)), rng.randint(1, 3))
        q, dim = ctx.modulus, rng.randint(1, 6)
        big = howell_from_rows(ctx, dim, [[rng.randrange(q) for _ in range(dim)]
                                          for _ in range(rng.randint(1, 4))])
        if big.is_zero():
            continue
        small = howell_from_rows(ctx, dim, [
            [sum(c * row[k] for c, row in zip(coeffs, big.rows)) for k in range(dim)]
            for coeffs in ([rng.choice((1, ctx.p)) * rng.randrange(q) for _ in big.rows]
                           for _ in range(rng.randint(0, 3)))])
        seen.clear()
        quotient_structure(big, small)
        assert seen == [dual_constraint_relations(big, small)]
        tested += 1
