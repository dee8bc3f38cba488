"""Exact linear algebra over the local rings Z/p^n.

All arithmetic uses plain Python integers, so every result is exact.  The
central object is the Howell normal form of a row span: the unique echelon
basis of a submodule of (Z/p^n)^d.  Over a non-field ring a triangular basis
alone does not determine the span; the Howell property (every span member
with extra leading zeros lies in the span of the later rows) is restored by
adjoining the annihilator multiple p^(n-v) * row of each pivot row.  Pivots
are normalized to exactly p^v and entries above a pivot are reduced modulo
the pivot, which makes equality of submodules an entry-wise comparison.

A module vector is a plain tuple of ints, reduced modulo p^n on entry, and
a matrix is its rows: the Howell form and the kernel each take the rows
and the width, and check every row against it.  A 2x2 matrix is its
row-major 4-tuple: solve2 decides m x = b for one in closed form, and
fixed_submodule gives the vectors that a list of them fixes.  The ring
itself, ModulusContext, lives in ring.

Division never happens blindly: every nonzero residue is split into
unit * p^v, units are inverted with pow(u, -1, q), and only the p-power part
is ever divided out.  This is what keeps elimination sound in the presence
of zero divisors.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ConsistencyError, ContainmentError, DimensionError
from .ring import ModulusContext


# ---------------------------------------------------------------------------
# Howell normal form and everything built on it.


def _howell_raw(rows, ncols: int, ctx: ModulusContext) -> list[list[int]]:
    """Howell basis of the row span; rows are integer lists, output canonical."""
    p, n, q = ctx.p, ctx.n, ctx.modulus
    seen = set()
    work = []
    for r in rows:
        t = tuple(x % q for x in r)
        if any(t) and t not in seen:
            seen.add(t)
            work.append(list(t))
    pivots: list[tuple[int, list[int]]] = []
    for col in range(ncols):
        cand = [i for i, r in enumerate(work) if r[col]]
        if not cand:
            continue
        best = min(cand, key=lambda i: ctx.valuation(work[i][col])[0])
        row = work.pop(best)
        v, unit = ctx.valuation(row[col])
        inv = ctx.unit_inverse(unit)
        row = [(inv * e) % q for e in row]
        piv = p**v
        for r in work:
            e = r[col]
            if e:
                c = e // piv
                for j in range(col, ncols):
                    r[j] = (r[j] - c * row[j]) % q
        if v > 0:
            ann = [(p ** (n - v)) * e % q for e in row]
            if any(ann):
                work.append(ann)
        pivots.append((col, row))
    out = [r for _, r in pivots]
    cols = [c for c, _ in pivots]
    for i in range(len(out) - 2, -1, -1):
        ri = out[i]
        for j in range(i + 1, len(out)):
            cj = cols[j]
            piv = out[j][cj]
            c = ri[cj] // piv
            if c:
                rj = out[j]
                for k in range(cj, ncols):
                    ri[k] = (ri[k] - c * rj[k]) % q
    return out


def _kernel_raw(rows, ncols: int, ctx: ModulusContext) -> list[list[int]]:
    """Basis of the right kernel {x : R x = 0} of the matrix with these rows."""
    rrows = _howell_raw(rows, ncols, ctx)
    m = len(rrows)
    aug = []
    for j in range(ncols):
        row = [rrows[i][j] for i in range(m)]
        row.extend(1 if k == j else 0 for k in range(ncols))
        aug.append(row)
    h = _howell_raw(aug, m + ncols, ctx)
    return [row[m:] for row in h if not any(row[:m])]


class SubmoduleBasis(NamedTuple):
    """Canonical (Howell form) basis of a submodule of (Z/p^n)^d.

    Two submodules are equal iff their bases compare equal entry-wise, so
    this type doubles as the identity card of a submodule.
    """

    ctx: ModulusContext
    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_raw(ctx: ModulusContext, ambient_dim: int, raw_rows) -> "SubmoduleBasis":
        return SubmoduleBasis(ctx, ambient_dim, tuple(map(tuple, raw_rows)))

    def pivots(self) -> list[tuple[int, int]]:
        """(column, pivot value) per row; the pivot is the first nonzero entry."""
        out = []
        for r in self.rows:
            for j, e in enumerate(r):
                if e:
                    out.append((j, e))
                    break
        return out

    def span_size(self) -> int:
        q = self.ctx.modulus
        size = 1
        for _, piv in self.pivots():
            size *= q // piv
        return size

    def reduce(self, v: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of v modulo this span; v is reduced
        modulo p^n first."""
        if len(v) != self.ambient_dim:
            raise DimensionError("vector does not live in the ambient module")
        q = self.ctx.modulus
        cur = [x % q for x in v]
        for (col, piv), row in zip(self.pivots(), self.rows):
            c = cur[col] // piv
            if c:
                for j in range(col, self.ambient_dim):
                    cur[j] = (cur[j] - c * row[j]) % q
        return tuple(cur)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def is_zero(self) -> bool:
        return not self.rows


def _checked_rows(rows, ncols: int) -> list:
    """The rows as a list, each checked to have ncols entries."""
    rows = list(rows)
    for r in rows:
        if len(r) != ncols:
            raise DimensionError(f"a row of {len(r)} entries in a matrix of {ncols} columns")
    return rows


def howell_from_rows(ctx: ModulusContext, ambient_dim: int, rows) -> SubmoduleBasis:
    """Canonical basis of the span of the rows, each of ambient_dim entries."""
    rows = _checked_rows(rows, ambient_dim)
    return SubmoduleBasis.from_raw(ctx, ambient_dim, _howell_raw(rows, ambient_dim, ctx))


def kernel_basis(ctx: ModulusContext, ncols: int, rows) -> SubmoduleBasis:
    """Basis of {x : R x = 0} for the matrix R with these rows of ncols
    entries; the full module for no rows."""
    rows = _checked_rows(rows, ncols)
    return SubmoduleBasis.from_raw(ctx, ncols, _kernel_raw(rows, ncols, ctx))


def fixed_submodule(ctx: ModulusContext, keys: Iterable[tuple]) -> SubmoduleBasis:
    """Howell basis of {v : x v = v for every key x} over ctx, the kernel of
    the stacked rows of x - Id; the full module for no keys.  A key is a
    2x2 matrix as its row-major 4-tuple."""
    rows = []
    for a, b, c, d in keys:
        rows += [[a - 1, b], [c, d - 1]]
    return kernel_basis(ctx, 2, rows)


def solve2(ctx: ModulusContext, m: tuple[int, int, int, int], b: tuple[int, int]) -> Optional[tuple[int, int]]:
    """One x with m x = b for the 2x2 matrix with row-major entries m, or
    None; entries of m and b are reduced modulo p^n first.

    The Smith form of m read from valuations (Newman, Integral Matrices,
    ch. II): the first entry of least valuation, unit * p^v, is moved to
    the top left by a row and a column swap; p^v divides every other
    entry, so one row and one column step clear its row and column and
    leave diag(unit * p^v, h).  Then m x = b is solvable exactly when p^v
    divides the first eliminated coordinate of b and p^w, w the valuation
    of h, divides the second.  When m has a unit entry, the first one is
    that pivot (v = 0), and the four valuations are not computed.  The x
    found is re-checked against m x = b; a mismatch raises
    ConsistencyError.
    """
    p, q = ctx.p, ctx.modulus
    m = tuple(e % q for e in m)
    b = (b[0] % q, b[1] % q)
    for i, unit in enumerate(m):
        if unit % p:
            v = 0
            break
    else:
        vals = [ctx.valuation(e) for e in m]
        i = min(range(4), key=lambda j: vals[j][0])
        v, unit = vals[i]
    # The swaps put the pivot's row and column first: m[i ^ 1] is the other
    # entry of its row, m[i ^ 2] of its column, m[i ^ 3] the opposite one.
    f, g, h = m[i ^ 1], m[i ^ 2], m[i ^ 3]
    c0, c1 = (b[1], b[0]) if i >= 2 else b
    pv = p**v
    ui = ctx.unit_inverse(unit)
    k = g // pv * ui % q  # row 1 -= k * row 0
    l = f // pv * ui % q  # column 1 -= l * column 0
    w, hunit = ctx.valuation(h - k * f)
    c1 = (c1 - k * c0) % q
    pw = p**w
    if c0 % pv or c1 % pw:
        return None
    z0 = c0 // pv * ui % q
    z1 = c1 // pw * ctx.unit_inverse(hunit) % q
    x = ((z0 - l * z1) % q, z1)
    if i % 2:
        x = x[::-1]
    s00, s01, s10, s11 = m
    if ((s00 * x[0] + s01 * x[1]) % q, (s10 * x[0] + s11 * x[1]) % q) != b:
        raise ConsistencyError("2x2 solve fails the re-check m x = b")
    return x


# bench/tracer.py binds the zmod.solve.calls and zmod.solve.s metrics to
# this name; it is solve2 itself, not a second solver.
solve_linear = solve2


# ---------------------------------------------------------------------------
# Quotient structure via integer Smith normal form.


def _smith_diag_with_vinv(rel: list[list[int]], r: int) -> tuple[list[int], list[list[int]]]:
    """Diagonalize the relation lattice; returns (diagonal, V^-1).

    rel spans a finite-index sublattice L of Z^r.  Column operations are
    mirrored so that x -> x V maps L onto the diagonal lattice; row i of
    V^-1 is then a generator of the i-th cyclic factor of Z^r / L.
    """
    m = len(rel)
    M = [row[:] for row in rel]
    vinv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]

    def col_sub(src, dst, c):
        for row in M:
            row[dst] -= c * row[src]
        for j in range(r):
            vinv[src][j] += c * vinv[dst][j]

    def col_swap(a, b):
        for row in M:
            row[a], row[b] = row[b], row[a]
        vinv[a], vinv[b] = vinv[b], vinv[a]

    t = 0
    while t < min(m, r):
        pos = [(i, j) for i in range(t, m) for j in range(t, r) if M[i][j]]
        if not pos:
            break
        i0, j0 = min(pos, key=lambda ij: (abs(M[ij[0]][ij[1]]), ij))
        M[t], M[i0] = M[i0], M[t]
        if j0 != t:
            col_swap(t, j0)
        if M[t][t] < 0:
            M[t] = [-e for e in M[t]]
        while True:
            dirty = False
            for i in range(t + 1, m):
                if M[i][t]:
                    c = M[i][t] // M[t][t]
                    if c:
                        for j in range(t, r):
                            M[i][j] -= c * M[t][j]
                    if M[i][t]:
                        M[t], M[i] = M[i], M[t]
                        if M[t][t] < 0:
                            M[t] = [-e for e in M[t]]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, r):
                if M[t][j]:
                    c = M[t][j] // M[t][t]
                    if c:
                        col_sub(t, j, c)
                    if M[t][j]:
                        col_swap(t, j)
                        if M[t][t] < 0:
                            M[t] = [-e for e in M[t]]
                        dirty = True
                        break
            if dirty:
                continue
            bad = next(
                ((i, j) for i in range(t + 1, m) for j in range(t + 1, r) if M[i][j] % M[t][t]),
                None,
            )
            if bad is None:
                break
            bi, _ = bad
            for j in range(t, r):
                M[t][j] += M[bi][j]
        t += 1
    diag = [abs(M[i][i]) if i < m else 0 for i in range(r)]
    return diag, vinv


def quotient_structure(big: SubmoduleBasis, small: SubmoduleBasis) -> list[tuple[int, tuple[int, ...]]]:
    """Cyclic decomposition of span(big)/span(small).

    Returns (order, representative) pairs with orders descending; the
    representatives generate the quotient and their classes have exactly
    the stated orders.

    The relations are one kernel: the coefficient vectors c with
    sum_j c_j big_j in span(small) are the first r coordinates of the
    kernel of [big^T | -small^T], r = len(big.rows), brought to Howell
    form.  Each relation row is re-checked to map into span(small), and
    the product of the orders against the index computed from the two
    span sizes; a submodule of the relation module with the right index
    is the whole module, so the two checks together pin it.
    """
    if big.ctx != small.ctx or big.ambient_dim != small.ambient_dim:
        raise DimensionError("bases live in different ambient modules")
    if not all(big.contains(r) for r in small.rows):
        raise ContainmentError("the smaller submodule is not contained in the larger one")
    ctx = big.ctx
    q = ctx.modulus
    r = len(big.rows)
    if r == 0:
        return []
    # Row k: coordinate k of each big row, then of each small row negated.
    # A kernel vector (c, e) has sum_j c_j big_j = sum_i e_i small_i.
    stack = [[b[k] for b in big.rows] + [-s[k] for s in small.rows] for k in range(big.ambient_dim)]
    rel = _howell_raw([row[:r] for row in _kernel_raw(stack, r + len(small.rows), ctx)], r, ctx)
    for c in rel:
        if not small.contains([sum(cj * b[k] for cj, b in zip(c, big.rows)) for k in range(big.ambient_dim)]):
            raise ConsistencyError("a relation row does not map big into span(small)")
    rel.extend([q if i == j else 0 for j in range(r)] for i in range(r))
    diag, vinv = _smith_diag_with_vinv(rel, r)
    if any(d == 0 for d in diag):
        raise ConsistencyError("relation lattice unexpectedly not of full rank")
    out = []
    for i, d in enumerate(diag):
        if d > 1:
            acc = [0] * big.ambient_dim
            for j, c in enumerate(vinv[i]):
                if c % q:
                    for k in range(big.ambient_dim):
                        acc[k] = (acc[k] + c * big.rows[j][k]) % q
            out.append((d, tuple(acc)))
    out.sort(key=lambda t: -t[0])
    index = big.span_size() // small.span_size()
    prod = 1
    for d, _ in out:
        prod *= d
    if prod != index:
        raise ConsistencyError(f"invariant factor product {prod} != index {index}")
    return out
