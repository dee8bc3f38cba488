"""Exact linear algebra over the local rings Z/p^n.

All arithmetic uses plain Python integers, so every result is exact.  The
central object is the Howell normal form of a row span: the unique echelon
basis of a submodule of (Z/p^n)^d.  Over a non-field ring a triangular basis
alone does not determine the span; the Howell property (every span member
with extra leading zeros lies in the span of the later rows) is restored by
adjoining the annihilator multiple p^(n-v) * row of each pivot row.  Pivots
are normalized to exactly p^v and entries above a pivot are reduced modulo
the pivot, which makes equality of submodules an entry-wise comparison.

Division never happens blindly: every nonzero residue is split into
unit * p^v, units are inverted with pow(u, -1, q), and only the p-power part
is ever divided out.  This is what keeps elimination sound in the presence
of zero divisors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import ConsistencyError, ContainmentError, DimensionError, InputError

MAX_MODULUS = 2**63 - 1


# The first twelve primes: as Miller-Rabin bases they decide primality
# exactly for every m < 3.3 * 10^24 (Sorenson and Webster, 2015), far above
# MAX_MODULUS.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for m < 3.3 * 10^24."""
    if m < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ModulusContext:
    """The coefficient ring Z/p^n for an odd prime p and exponent n >= 1."""

    p: int
    n: int
    modulus: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.p < 3 or (self.p <= MAX_MODULUS and not is_prime(self.p)):
            raise InputError(f"p = {self.p} must be an odd prime >= 3")
        if self.n < 1:
            raise InputError(f"exponent n = {self.n} must be >= 1")
        # p >= 3, so p^n passes MAX_MODULUS once n >= 40: never raise p to a
        # huge n, and never test a p above MAX_MODULUS for primality.
        if self.p > MAX_MODULUS or self.n >= 64 or self.p**self.n > MAX_MODULUS:
            raise InputError(f"modulus p^n = {self.p}^{self.n} does not fit a 63-bit word")
        object.__setattr__(self, "modulus", self.p**self.n)

    def valuation(self, x: int) -> tuple[int, int]:
        """Split a residue as unit * p^v; the zero residue gives (n, 1)."""
        x %= self.modulus
        if x == 0:
            return self.n, 1
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v, x

    def unit_inverse(self, u: int) -> int:
        u %= self.modulus
        if u % self.p == 0:
            raise InputError(f"{u} is not a unit modulo {self.modulus}")
        return pow(u, -1, self.modulus)


@dataclass(frozen=True)
class ModVector:
    """A coordinate vector with entries reduced modulo p^n."""

    ctx: ModulusContext
    coords: tuple[int, ...]

    @staticmethod
    def make(ctx: ModulusContext, coords: Sequence[int]) -> "ModVector":
        return ModVector(ctx, tuple(c % ctx.modulus for c in coords))

    def __len__(self) -> int:
        return len(self.coords)

    def __add__(self, other: "ModVector") -> "ModVector":
        self._align(other)
        q = self.ctx.modulus
        return ModVector(self.ctx, tuple((a + b) % q for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "ModVector") -> "ModVector":
        self._align(other)
        q = self.ctx.modulus
        return ModVector(self.ctx, tuple((a - b) % q for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "ModVector":
        q = self.ctx.modulus
        return ModVector(self.ctx, tuple((-a) % q for a in self.coords))

    def scale(self, c: int) -> "ModVector":
        q = self.ctx.modulus
        return ModVector(self.ctx, tuple((c * a) % q for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def additive_order(self) -> int:
        """Smallest k >= 1 with k * v = 0; a power of p."""
        v = min((self.ctx.valuation(c)[0] for c in self.coords), default=self.ctx.n)
        return self.ctx.p ** (self.ctx.n - v)

    def _align(self, other: "ModVector"):
        if self.ctx != other.ctx or len(self) != len(other):
            raise DimensionError("vectors live in different modules")


@dataclass(frozen=True)
class ModMatrix:
    """A dense matrix over Z/p^n, stored row-major with reduced entries.

    A container for the linear algebra below; products, powers and inverses
    of group elements live on 4-tuple keys in groups.
    """

    ctx: ModulusContext
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError("entry count does not match the declared shape")

    @staticmethod
    def from_rows(ctx: ModulusContext, rows: Sequence[Sequence[int]]) -> "ModMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        q = ctx.modulus
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionError("ragged rows")
            flat.extend(x % q for x in r)
        return ModMatrix(ctx, nrows, ncols, tuple(flat))

    @staticmethod
    def identity(ctx: ModulusContext, size: int) -> "ModMatrix":
        return ModMatrix(ctx, size, size, tuple(1 if i == j else 0 for i in range(size) for j in range(size)))

    @staticmethod
    def zeros(ctx: ModulusContext, rows: int, cols: int) -> "ModMatrix":
        return ModMatrix(ctx, rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "ModMatrix":
        return ModMatrix(
            self.ctx,
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other: "ModMatrix") -> "ModMatrix":
        self._align(other)
        q = self.ctx.modulus
        return ModMatrix(self.ctx, self.rows, self.cols, tuple((a + b) % q for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "ModMatrix") -> "ModMatrix":
        self._align(other)
        q = self.ctx.modulus
        return ModMatrix(self.ctx, self.rows, self.cols, tuple((a - b) % q for a, b in zip(self.entries, other.entries)))

    def vec_mul(self, v: ModVector) -> ModVector:
        if self.ctx != v.ctx or self.cols != len(v):
            raise DimensionError("matrix/vector shape mismatch")
        q = self.ctx.modulus
        return ModVector(
            self.ctx,
            tuple(sum(self.entry(i, k) * v.coords[k] for k in range(self.cols)) % q for i in range(self.rows)),
        )

    def scale(self, c: int) -> "ModMatrix":
        q = self.ctx.modulus
        return ModMatrix(self.ctx, self.rows, self.cols, tuple((c * a) % q for a in self.entries))

    def reduce_to(self, ctx: ModulusContext) -> "ModMatrix":
        """Reduce every entry into a smaller coefficient ring (same p)."""
        if ctx.p != self.ctx.p or ctx.modulus > self.ctx.modulus:
            raise DimensionError("can only reduce to a quotient ring of the same p")
        q = ctx.modulus
        return ModMatrix(ctx, self.rows, self.cols, tuple(e % q for e in self.entries))

    def to_json(self) -> dict:
        return {"p": self.ctx.p, "n": self.ctx.n, "rows": self.row_lists()}

    @staticmethod
    def from_json(data: dict) -> "ModMatrix":
        ctx = ModulusContext(int(data["p"]), int(data["n"]))
        return ModMatrix.from_rows(ctx, data["rows"])

    def _align(self, other: "ModMatrix"):
        if self.ctx != other.ctx or (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix shape or ring mismatch")


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


@dataclass(frozen=True)
class SubmoduleBasis:
    """Canonical (Howell form) basis of a submodule of (Z/p^n)^d.

    Two submodules are equal iff their bases compare equal entry-wise, so
    this type doubles as the identity card of a submodule.
    """

    ctx: ModulusContext
    ambient_dim: int
    rows: tuple[ModVector, ...]

    @staticmethod
    def from_raw(ctx: ModulusContext, ambient_dim: int, raw_rows) -> "SubmoduleBasis":
        return SubmoduleBasis(ctx, ambient_dim, tuple(ModVector(ctx, tuple(r)) for r in raw_rows))

    def raw_rows(self) -> list[list[int]]:
        return [list(r.coords) for r in self.rows]

    def pivots(self) -> list[tuple[int, int]]:
        """(column, pivot value) per row; the pivot is the first nonzero entry."""
        out = []
        for r in self.rows:
            for j, e in enumerate(r.coords):
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

    def reduce(self, v: ModVector) -> ModVector:
        """Canonical representative of v modulo this span."""
        if len(v) != self.ambient_dim or v.ctx != self.ctx:
            raise DimensionError("vector does not live in the ambient module")
        q = self.ctx.modulus
        cur = list(v.coords)
        for (col, piv), row in zip(self.pivots(), self.rows):
            c = cur[col] // piv
            if c:
                for j in range(col, self.ambient_dim):
                    cur[j] = (cur[j] - c * row.coords[j]) % q
        return ModVector(self.ctx, tuple(cur))

    def contains(self, v: ModVector) -> bool:
        return self.reduce(v).is_zero()

    def contains_basis(self, other: "SubmoduleBasis") -> bool:
        return all(self.contains(r) for r in other.rows)

    def enumerate_span(self, limit: Optional[int] = None) -> Iterator[ModVector]:
        """Every span element exactly once (Howell coefficient ranges)."""
        from .errors import ResourceLimitError

        q = self.ctx.modulus
        if limit is not None and self.span_size() > limit:
            raise ResourceLimitError(f"span of size {self.span_size()} exceeds the cap of {limit}")
        ranges = [range(q // piv) for _, piv in self.pivots()]
        raw = [list(r.coords) for r in self.rows]
        for combo in itertools.product(*ranges):
            acc = [0] * self.ambient_dim
            for c, row in zip(combo, raw):
                if c:
                    for j in range(self.ambient_dim):
                        acc[j] = (acc[j] + c * row[j]) % q
            yield ModVector(self.ctx, tuple(acc))

    def is_zero(self) -> bool:
        return not self.rows


def full_basis(ctx: ModulusContext, ambient_dim: int) -> SubmoduleBasis:
    rows = [[1 if j == i else 0 for j in range(ambient_dim)] for i in range(ambient_dim)]
    return SubmoduleBasis.from_raw(ctx, ambient_dim, rows)


def howell_form(m: ModMatrix) -> SubmoduleBasis:
    """Canonical basis of the row span of m."""
    return SubmoduleBasis.from_raw(m.ctx, m.cols, _howell_raw(m.row_lists(), m.cols, m.ctx))


def howell_from_rows(ctx: ModulusContext, ambient_dim: int, rows) -> SubmoduleBasis:
    return SubmoduleBasis.from_raw(ctx, ambient_dim, _howell_raw(rows, ambient_dim, ctx))


def kernel_basis(m: ModMatrix) -> SubmoduleBasis:
    """Basis of {x : m x = 0}."""
    return SubmoduleBasis.from_raw(m.ctx, m.cols, _kernel_raw(m.row_lists(), m.cols, m.ctx))


def image_basis(m: ModMatrix) -> SubmoduleBasis:
    """Basis of the column span of m."""
    t = m.transpose()
    return SubmoduleBasis.from_raw(m.ctx, m.rows, _howell_raw(t.row_lists(), t.cols, m.ctx))


@dataclass(frozen=True)
class LinearSolution:
    solution: Optional[ModVector]
    kernel: SubmoduleBasis

    @property
    def solvable(self) -> bool:
        return self.solution is not None

    def all_solutions(self, limit: Optional[int] = None) -> Iterator[ModVector]:
        if self.solution is None:
            return
        for k in self.kernel.enumerate_span(limit):
            yield self.solution + k


class LinearSolver:
    """Solves a x = b for one fixed matrix a and any number of right-hand sides.

    The Howell form of the augmented transpose [a^T | Id] is computed once.
    Its rows with a nonzero left part pair a Howell basis of the column span
    of a with the combination coefficients that produce each basis vector;
    its rows with a zero left part are a basis of the kernel of a.  Each
    solve is then one reduction of b against that column-span basis.
    """

    def __init__(self, a: ModMatrix):
        self.a = a
        m, ncols = a.rows, a.cols
        aug = []
        for j in range(ncols):
            row = [a.entry(i, j) for i in range(m)]
            row.extend(1 if k == j else 0 for k in range(ncols))
            aug.append(row)
        # (pivot column, pivot value, column-span vector, its coefficients)
        self._image: list[tuple[int, int, list[int], list[int]]] = []
        kernel_rows = []
        for row in _howell_raw(aug, m + ncols, a.ctx):
            left = row[:m]
            col = next((j for j, e in enumerate(left) if e), None)
            if col is None:
                kernel_rows.append(row[m:])
            else:
                self._image.append((col, left[col], left, row[m:]))
        self.kernel = SubmoduleBasis.from_raw(a.ctx, ncols, kernel_rows)

    def solve(self, b: ModVector) -> LinearSolution:
        """One solution of a x = b (if any) together with the kernel of a.

        A solution found is re-checked against a x = b; a mismatch raises
        ConsistencyError.
        """
        a = self.a
        if a.ctx != b.ctx or len(b) != a.rows:
            raise DimensionError("right-hand side does not match the matrix")
        q = a.ctx.modulus
        m, ncols = a.rows, a.cols
        bb = list(b.coords)
        x = [0] * ncols
        for col, piv, left, coeffs in self._image:
            c = bb[col] // piv
            if c:
                for j in range(m):
                    bb[j] = (bb[j] - c * left[j]) % q
                for j in range(ncols):
                    x[j] = (x[j] + c * coeffs[j]) % q
        if any(bb):
            return LinearSolution(None, self.kernel)
        sol = ModVector(a.ctx, tuple(x))
        if a.vec_mul(sol) != b:
            raise ConsistencyError("solver result fails the re-check a x = b")
        return LinearSolution(sol, self.kernel)


def column_span2(m: ModMatrix) -> list[tuple[int, int, tuple[int, int], tuple[int, int]]]:
    """Howell basis of the column span of a 2x2 matrix, in closed form.

    Rows are (pivot column, pivot p^v, basis vector, coefficients x with
    m x = basis vector), the layout of LinearSolver's column-span rows.
    The two columns of m are eliminated as in _howell_raw: the one of least
    valuation in the first coordinate becomes the first pivot row, it
    clears the other, and its annihilator multiple p^(n-v) joins the
    candidates for the second coordinate, where the one of least valuation
    is the second pivot row and the rest reduce to zero.  The first row is
    then reduced modulo the second pivot, so the vectors are canonical.
    """
    if (m.rows, m.cols) != (2, 2):
        raise DimensionError("column_span2 is for 2x2 matrices")
    ctx = m.ctx
    p, n, q = ctx.p, ctx.n, ctx.modulus
    a, b, c, d = m.entries
    rest = [(a, c, 1, 0), (b, d, 0, 1)]  # (column of m, its coefficients)
    out = []
    for col in (0, 1):
        live = [(*ctx.valuation(s[col]), i) for i, s in enumerate(rest) if s[col]]
        if not live:
            continue
        v, unit, i = min(live)
        ui = pow(unit, -1, q)
        r = tuple(ui * e % q for e in rest.pop(i))
        piv = p**v
        rest = [tuple((e - s[col] // piv * f) % q for e, f in zip(s, r)) for s in rest]
        if v:
            rest.append(tuple(p ** (n - v) * e % q for e in r))
        out.append((col, piv, (r[0], r[1]), (r[2], r[3])))
    if len(out) == 2:
        (_, piv0, (t0, t1), (x0, x1)), (_, piv1, (_, s1), (y0, y1)) = out
        k = t1 // piv1
        out[0] = (0, piv0, (t0, (t1 - k * s1) % q), ((x0 - k * y0) % q, (x1 - k * y1) % q))
    return out


def solve2(m: ModMatrix, span, b: tuple[int, int]) -> Optional[tuple[int, int]]:
    """One x with m x = b for a 2x2 matrix m and a reduced pair b, or None.

    b is reduced against span, the column-span rows of m (column_span2),
    on plain integers.  A solution found is re-checked against m x = b; a
    mismatch raises ConsistencyError.
    """
    q = m.ctx.modulus
    b0, b1 = b
    x0 = x1 = 0
    for col, piv, (l0, l1), (c0, c1) in span:
        c = (b1 if col else b0) // piv
        if c:
            b0 = (b0 - c * l0) % q
            b1 = (b1 - c * l1) % q
            x0 = (x0 + c * c0) % q
            x1 = (x1 + c * c1) % q
    if b0 or b1:
        return None
    s00, s01, s10, s11 = m.entries
    if ((s00 * x0 + s01 * x1) % q, (s10 * x0 + s11 * x1) % q) != b:
        raise ConsistencyError("2x2 solve fails the re-check m x = b")
    return x0, x1


def solve_linear(a: ModMatrix, b: ModVector) -> LinearSolution:
    """One solution of a x = b (if any) together with the kernel of a.

    The full solution set is solution + kernel.  For many right-hand sides
    against the same matrix, build one LinearSolver and reuse it.
    """
    return LinearSolver(a).solve(b)


def dual_constraints(basis: SubmoduleBasis) -> ModMatrix:
    """A matrix K with ker(K) = span(basis).

    Valid because Z/p^n is self-injective: the double annihilator of a
    submodule is the submodule itself.  The round trip is re-checked here.
    """
    d = basis.ambient_dim
    ctx = basis.ctx
    kern_rows = _kernel_raw(basis.raw_rows(), d, ctx)
    if not kern_rows:
        k = ModMatrix.zeros(ctx, d, d)
    else:
        k = ModMatrix.from_rows(ctx, kern_rows)
    back = kernel_basis(k)
    if back != howell_from_rows(ctx, d, basis.raw_rows()):
        raise ConsistencyError("double-dual check failed; basis was not in Howell form?")
    return k


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


def quotient_structure(big: SubmoduleBasis, small: SubmoduleBasis) -> list[tuple[int, ModVector]]:
    """Cyclic decomposition of span(big)/span(small).

    Returns (order, representative) pairs with orders descending; the
    representatives generate the quotient and their classes have exactly
    the stated orders.  The product of the orders is checked against the
    index computed from the two span sizes.
    """
    if big.ctx != small.ctx or big.ambient_dim != small.ambient_dim:
        raise DimensionError("bases live in different ambient modules")
    if not big.contains_basis(small):
        raise ContainmentError("the smaller submodule is not contained in the larger one")
    ctx = big.ctx
    q = ctx.modulus
    r = len(big.rows)
    if r == 0:
        return []
    constraints = dual_constraints(small)
    big_raw = big.raw_rows()
    # Row i, column j: constraint row i applied to basis row j of big.
    t = [[sum(k * b for k, b in zip(krow, brow)) % q for brow in big_raw] for krow in constraints.row_lists()]
    kq = _kernel_raw(t, r, ctx)
    rel = [list(row) for row in kq]
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
                        acc[k] = (acc[k] + c * big_raw[j][k]) % q
            out.append((d, ModVector(ctx, tuple(acc))))
    out.sort(key=lambda t: -t[0])
    index = big.span_size() // small.span_size()
    prod = 1
    for d, _ in out:
        prod *= d
    if prod != index:
        raise ConsistencyError(f"invariant factor product {prod} != index {index}")
    return out


def quotient_invariants(big: SubmoduleBasis, small: SubmoduleBasis) -> list[int]:
    """Invariant factors (descending prime powers) of span(big)/span(small)."""
    return [d for d, _ in quotient_structure(big, small)]
