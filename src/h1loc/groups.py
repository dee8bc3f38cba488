"""Finite subgroups of GL_2(Z/p^n): enumeration and structural queries.

Groups are closed from generators with a breadth-first traversal whose
frontier order is fixed by the generator list, so element indices are
reproducible run to run.  An element is its index and its 4-tuple of
reduced entries (its key); index 0 is always the identity, and no other
per-element object exists (FiniteMatrixGroup.matrix builds a ModMatrix for
one index on demand).  _mul4, _inv4, _pow4, _powers4, _invertible4 and
_close_keys are the package's only 2x2 group arithmetic; ModMatrix has
none.  Everything is immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .errors import ConsistencyError, ContractError, InputError, ResourceLimitError
from .zmod import (
    ModMatrix,
    ModulusContext,
    ModVector,
    SubmoduleBasis,
    kernel_basis,
)

DEFAULT_GROUP_CAP = 10**6
_MULT_TABLE_LIMIT = 512

MatrixLike = Union[ModMatrix, Sequence[Sequence[int]]]


def _as_matrix(ctx: ModulusContext, m: MatrixLike) -> ModMatrix:
    if isinstance(m, ModMatrix):
        if m.ctx != ctx:
            raise InputError("generator has a different coefficient ring")
        return m
    return ModMatrix.from_rows(ctx, m)


_IDENTITY = (1, 0, 0, 1)


def _invertible4(x, p) -> bool:
    """Whether the key's determinant is a unit, that is nonzero mod p."""
    a, b, c, d = x
    return (a * d - b * c) % p != 0


def _mul4(x, y, q):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % q, (a * f + b * h) % q, (c * e + d * g) % q, (c * f + d * h) % q)


def _inv4(x, q):
    a, b, c, d = x
    di = pow((a * d - b * c) % q, -1, q)
    return ((d * di) % q, (-b * di) % q, (-c * di) % q, (a * di) % q)


def _pow4(x, k: int, q):
    """x^k for k >= 0 by square and multiply."""
    out = _IDENTITY
    while k:
        if k & 1:
            out = _mul4(out, x, q)
        x = _mul4(x, x, q)
        k >>= 1
    return out


def _powers4(x, q) -> list:
    """[Id, x, x^2, ..., x^(k-1)] for the order k of the invertible key x:
    the cyclic span in power order, so its length is the order of x."""
    out = [_IDENTITY]
    cur = x
    # The order of an element of GL_2(Z/q) is below q^2 (at most
    # p^(n-1) (p^2 - 1) for q = p^n); the bound only guards the loop.
    for _ in range(4 * q * q):
        if cur == _IDENTITY:
            return out
        out.append(cur)
        cur = _mul4(cur, x, q)
    raise ConsistencyError("order computation did not terminate")


def _close_keys(gen_keys: Sequence[tuple], q: int, cap: int = DEFAULT_GROUP_CAP):
    """Breadth-first closure of gen_keys under right multiplication.

    Returns (keys, index, parent, slot, right): keys[0] is the identity,
    index maps each key to its position, keys[i] = keys[parent[i]] *
    gen_keys[slot[i]] for i >= 1, and right[i * K + j] is the index of
    keys[i] * gen_keys[j] for K = len(gen_keys).  One tree edge per element
    (a Schreier vector) plus the K edge targets the walk computes anyway
    keep memory linear in the group order; words are rebuilt from the tree
    on demand.  Raises ResourceLimitError when the closure passes cap.
    """
    keys = [_IDENTITY]
    index = {_IDENTITY: 0}
    parent = array("q", [0])
    slot = array("q", [0])
    right = array("q")
    i = 0
    while i < len(keys):
        base = keys[i]
        for j, gk in enumerate(gen_keys):
            prod = _mul4(base, gk, q)
            t = index.get(prod)
            if t is None:
                t = len(keys)
                if t >= cap:
                    raise ResourceLimitError(f"group closure exceeded the cap of {cap} elements")
                index[prod] = t
                keys.append(prod)
                parent.append(i)
                slot.append(j)
            right.append(t)
        i += 1
    return keys, index, parent, slot, right


class FiniteMatrixGroup:
    """A fully enumerated subgroup of GL_2(Z/p^n).

    Built through close_group; do not mutate after construction.  The
    listed generators are kept as element indices.
    """

    def __init__(self, ctx, gen_keys, closure, label):
        self.ctx = ctx
        self.label = label
        q = ctx.modulus
        self._q = q
        self._keys, self._index, self._parent, self._slot, self._right = closure
        self.generators = tuple(self._index[k] for k in gen_keys)
        self._inv = array("q", [self._index[_inv4(k, q)] for k in self._keys])
        self._table = None

    def __len__(self) -> int:
        return len(self._keys)

    def matrix(self, i: int) -> ModMatrix:
        """Element i as a ModMatrix, built on demand."""
        return ModMatrix(self.ctx, 2, 2, self._keys[i])

    def word(self, i: int) -> tuple[int, ...]:
        """Generator positions whose product, left to right, is element i;
        a shortest such word, read off the breadth-first tree."""
        out = []
        while i:
            out.append(self._slot[i])
            i = self._parent[i]
        return tuple(reversed(out))

    def index_of(self, m: MatrixLike) -> int:
        mat = _as_matrix(self.ctx, m)
        try:
            return self._index[mat.entries]
        except KeyError:
            raise InputError("matrix is not an element of this group") from None

    def __contains__(self, m) -> bool:
        try:
            self.index_of(m)
            return True
        except InputError:
            return False

    def mult(self, i: int, j: int) -> int:
        if self._table is not None:
            return self._table[i][j]
        return self._index[_mul4(self._keys[i], self._keys[j], self._q)]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def multiplication_table(self) -> tuple[tuple[int, ...], ...]:
        """Dense index-by-index table; materialized once, small groups only."""
        n = len(self)
        if n > _MULT_TABLE_LIMIT:
            raise ResourceLimitError(
                f"dense multiplication table capped at {_MULT_TABLE_LIMIT} elements (group has {n})"
            )
        if self._table is None:
            keys, q, index = self._keys, self._q, self._index
            self._table = tuple(
                tuple(index[_mul4(a, b, q)] for b in keys) for a in keys
            )
        return self._table

    def distinct_generator_indices(self) -> list[int]:
        """Indices of the listed generators, deduplicated, identity dropped."""
        out = []
        for g in self.generators:
            if g != 0 and g not in out:
                out.append(g)
        return out

    def edge_targets(self) -> list[array]:
        """Cayley edges of the distinct generators, read off the closure:
        out[s][a] = mult(a, distinct_generator_indices()[s])."""
        k = len(self.generators)
        return [self._right[self.generators.index(g) :: k] for g in self.distinct_generator_indices()]

    def conjugate_set(self, g_index: int, indices: Iterable[int]) -> frozenset[int]:
        gi = self.inv(g_index)
        return frozenset(self.mult(self.mult(g_index, s), gi) for s in indices)

    def subgroup_generators(self, indices: Iterable[int]) -> Optional[list[int]]:
        """Generators of the index set if it is a subgroup, else None.

        Picked greedily in index order: each element not yet spanned joins
        the generators.  The set is a subgroup exactly when it holds the
        identity and the closure of these generators equals it; the walk
        stops as soon as a closure leaves the set.
        """
        target = frozenset(indices)
        if 0 not in target:
            return None
        gens: list[int] = []
        spanned = frozenset({0})
        for i in sorted(target):
            if i not in spanned:
                gens.append(i)
                spanned = closure_indices(self, gens)
                if not spanned <= target:
                    return None
        return gens

    def is_subgroup_set(self, indices: Iterable[int]) -> bool:
        return self.subgroup_generators(indices) is not None

    def is_normal_set(self, indices: Iterable[int]) -> bool:
        s = frozenset(indices)
        return all(self.conjugate_set(g, s) == s for g in self.distinct_generator_indices())


def close_group(
    gens: Sequence[MatrixLike],
    ctx: ModulusContext,
    cap: int = DEFAULT_GROUP_CAP,
    label: Optional[str] = None,
) -> FiniteMatrixGroup:
    """Enumerate the subgroup generated by gens.

    Breadth-first over right multiplication by the generators in their
    listed order; raises ResourceLimitError when the closure passes cap.
    """
    keys = []
    for g in gens:
        m = _as_matrix(ctx, g)
        if m.rows != 2 or m.cols != 2:
            raise InputError("generators must be 2x2")
        if not _invertible4(m.entries, ctx.p):
            raise InputError("generator determinant is not a unit: not invertible")
        keys.append(m.entries)
    return FiniteMatrixGroup(ctx, keys, _close_keys(keys, ctx.modulus, cap), label)


def element_order(mat: ModMatrix) -> int:
    """Least k >= 1 with mat^k = Id."""
    if not _invertible4(mat.entries, mat.ctx.p):
        raise InputError("order is defined for invertible matrices only")
    return len(_powers4(mat.entries, mat.ctx.modulus))


def reduction_kernel(g: FiniteMatrixGroup) -> frozenset[int]:
    """Elements congruent to the identity mod p (the kernel of reduction).

    Always a normal subgroup.  For n = 1 the reduction is the identity map,
    so the kernel is just {Id}; a notice is emitted since that is usually
    not what the caller wanted.
    """
    p = g.ctx.p
    if g.ctx.n == 1:
        warnings.warn("reduction mod p is trivial when n = 1; kernel is {Id}", stacklevel=2)
    out = frozenset(
        i for i, k in enumerate(g._keys) if (k[0] % p, k[1] % p, k[2] % p, k[3] % p) == (1, 0, 0, 1)
    )
    return out


class QuotientGroup:
    """G/S for a verified normal subgroup S, with its own index arithmetic.

    Coset 0 is always the coset of the identity.  Representatives are the
    least parent indices in each coset, so the structure is reproducible.
    """

    def __init__(self, parent: FiniteMatrixGroup, normal_indices: Iterable[int]):
        s = frozenset(normal_indices)
        if not parent.is_subgroup_set(s):
            raise ContractError("the given index set is not a subgroup")
        if not parent.is_normal_set(s):
            raise ContractError("the given subgroup is not normal")
        self.parent = parent
        self.normal_indices = s
        n = len(parent)
        coset_index = [-1] * n
        reps = []
        sorted_s = sorted(s)
        for i in range(n):
            if coset_index[i] >= 0:
                continue
            k = len(reps)
            reps.append(i)
            for t in sorted_s:
                coset_index[parent.mult(i, t)] = k
        self.reps = tuple(reps)
        self.coset_index = tuple(coset_index)
        m = len(reps)
        if m * len(s) != n:
            raise ConsistencyError("coset count times subgroup order must equal the group order")
        self._mult = tuple(
            tuple(coset_index[parent.mult(reps[a], reps[b])] for b in range(m)) for a in range(m)
        )
        self._inv = tuple(coset_index[parent.inv(reps[a])] for a in range(m))

    def __len__(self) -> int:
        return len(self.reps)

    @property
    def ctx(self) -> ModulusContext:
        return self.parent.ctx

    def mult(self, a: int, b: int) -> int:
        return self._mult[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def coset_of(self, parent_index: int) -> int:
        return self.coset_index[parent_index]

    def generator_cosets(self) -> list[int]:
        out = []
        for g in self.parent.generators:
            c = self.coset_index[g]
            if c != 0 and c not in out:
                out.append(c)
        return out

    def edge_targets(self) -> list[array]:
        """Cayley edges of the generator cosets, read off the dense table:
        out[s][a] = mult(a, generator_cosets()[s])."""
        return [array("q", [row[c] for row in self._mult]) for c in self.generator_cosets()]

    def is_abelian(self) -> bool:
        m = len(self)
        return all(self._mult[a][b] == self._mult[b][a] for a in range(m) for b in range(m))


def quotient_group(g: FiniteMatrixGroup, normal_indices: Iterable[int]) -> QuotientGroup:
    return QuotientGroup(g, normal_indices)


def closure_indices(g: FiniteMatrixGroup, gen_indices: Sequence[int]) -> frozenset[int]:
    """Subgroup of g generated by the given element indices."""
    keys = _close_keys([g._keys[i] for i in gen_indices], g._q, len(g))[0]
    return frozenset(map(g._index.__getitem__, keys))


def subgroup_from_indices(
    g: FiniteMatrixGroup, indices: Iterable[int], label: Optional[str] = None
) -> FiniteMatrixGroup:
    """Re-enumerate a subgroup (given as parent indices) as its own group.

    Generators are picked greedily from the elements in index order, which
    keeps the result deterministic and the generating set small.
    """
    target = frozenset(indices)
    gens = g.subgroup_generators(target)
    if gens is None:
        raise ContractError("index set is not closed under multiplication")
    gen_mats = [g.matrix(i) for i in gens] or [ModMatrix.identity(g.ctx, 2)]
    sub = close_group(gen_mats, g.ctx, label=label)
    if len(sub) != len(target):
        raise ConsistencyError("subgroup re-enumeration changed the element count")
    return sub


def fixed_submodule(ctx: ModulusContext, xs: Iterable[ModMatrix]) -> SubmoduleBasis:
    """Howell basis of {v : x v = v for every x}; the full module for xs = {}."""
    rows = []
    ident = ModMatrix.identity(ctx, 2)
    for x in xs:
        rows.extend((x - ident).row_lists())
    if not rows:
        from .zmod import full_basis

        return full_basis(ctx, 2)
    return kernel_basis(ModMatrix.from_rows(ctx, rows))


@dataclass(frozen=True)
class EigenData:
    """Mod-p spectral data of a 2x2 matrix: roots of the characteristic
    polynomial over F_p with multiplicity, an irreducibility flag, and an
    eigenvector basis per split eigenvalue."""

    p: int
    eigenvalues: tuple[int, ...]
    irreducible: bool
    eigenvectors: tuple[tuple[int, SubmoduleBasis], ...]

    def vectors_for(self, eigenvalue: int) -> Optional[SubmoduleBasis]:
        for lam, basis in self.eigenvectors:
            if lam == eigenvalue:
                return basis
        return None


def eigen_data(mat: ModMatrix) -> EigenData:
    p = mat.ctx.p
    ctx_p = ModulusContext(p, 1)
    red = mat.reduce_to(ctx_p)
    a, b, c, d = red.entries
    tr = (a + d) % p
    det = (a * d - b * c) % p
    roots = [lam for lam in range(p) if (lam * lam - tr * lam + det) % p == 0]
    if not roots:
        return EigenData(p, (), True, ())
    if len(roots) == 1:
        eigenvalues: tuple[int, ...] = (roots[0], roots[0])
    else:
        eigenvalues = tuple(roots)
    pairs = []
    for lam in sorted(set(roots)):
        shifted = red - ModMatrix.identity(ctx_p, 2).scale(lam)
        pairs.append((lam, kernel_basis(shifted)))
    return EigenData(p, eigenvalues, False, tuple(pairs))


def line_representatives(p: int) -> list[tuple[int, int]]:
    """The p + 1 lines of F_p^2, e_1 first by convention."""
    return [(1, 0), (0, 1)] + [(1, t) for t in range(1, p)]


def borel_check(g: FiniteMatrixGroup) -> Optional[ModVector]:
    """A mod-p vector spanning a line stabilized by every element, if any.

    A common eigenvector mod p is exactly what membership in a Borel
    subgroup means here.  Checked on the generators; stabilizing a line is
    closed under products and inverses.
    """
    p = g.ctx.p
    ctx_p = ModulusContext(p, 1)
    gens = [g._keys[i] for i in g.distinct_generator_indices()]
    for v0, v1 in line_representatives(p):
        ok = True
        for a, b, c, d in gens:
            w0 = (a * v0 + b * v1) % p
            w1 = (c * v0 + d * v1) % p
            if (w0 * v1 - w1 * v0) % p != 0:
                ok = False
                break
        if ok:
            return ModVector(ctx_p, (v0, v1))
    return None


def power_identity_check(a: int, b: int, c: int, d: int, ctx: ModulusContext) -> bool:
    """Whether [[1+ap, 1+bp], [cp, 1+dp]] ^ (p^(n-1)) = [[1, p^(n-1)], [0, 1]].

    The base point of the unipotent-power phenomenon behind the explicit
    witness cocycles: any matrix of this shape has the same p^(n-1)-th power.
    Requires n >= 2 (the shape is empty of content mod p).
    """
    if ctx.n < 2:
        raise InputError("the power identity needs n >= 2")
    p, q = ctx.p, ctx.modulus
    m = ((1 + a * p) % q, (1 + b * p) % q, c * p % q, (1 + d * p) % q)
    s = p ** (ctx.n - 1)
    return _pow4(m, s, q) == (1, s, 0, 1)


def reduce_group_mod_p(g: FiniteMatrixGroup, label: Optional[str] = None) -> FiniteMatrixGroup:
    """Close the images of the generators in GL_2(F_p)."""
    ctx_p = ModulusContext(g.ctx.p, 1)
    mats = [g.matrix(i).reduce_to(ctx_p) for i in g.generators]
    return close_group(mats, ctx_p, label=label or (f"{g.label} mod p" if g.label else None))


def group_to_json(g: FiniteMatrixGroup) -> dict:
    return {
        "p": g.ctx.p,
        "n": g.ctx.n,
        "generators": [g.matrix(i).row_lists() for i in g.generators],
        "label": g.label,
    }


def _is_integer(x) -> bool:
    """A JSON integer; bool is an int subclass in Python but not an entry."""
    return isinstance(x, int) and not isinstance(x, bool)


def group_from_json(data: dict, cap: int = DEFAULT_GROUP_CAP) -> FiniteMatrixGroup:
    """Build a group from {"p":..., "n":..., "generators":[...], "label":...}.

    p, n and the matrix entries must be integers (not booleans, floats or
    strings) and the label a string or null; anything else is an InputError.
    Entries may be negative; they are reduced modulo p^n on ingestion.
    """
    if not isinstance(data, dict):
        raise InputError("group definition must be a JSON object")
    try:
        p, n, gens = data["p"], data["n"], data["generators"]
    except KeyError as exc:
        raise InputError(f"group definition is missing the key {exc}") from None
    if not (_is_integer(p) and _is_integer(n)):
        raise InputError(f"p and n must be integers, got p = {p!r}, n = {n!r}")
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError(f"label must be a string or null, got {label!r}")
    ctx = ModulusContext(p, n)
    if not isinstance(gens, list) or not gens:
        raise InputError("group definition needs a non-empty generator list")
    mats = []
    for gmat in gens:
        if not (
            isinstance(gmat, list)
            and len(gmat) == 2
            and all(isinstance(r, list) and len(r) == 2 and all(map(_is_integer, r)) for r in gmat)
        ):
            raise InputError(f"each generator must be a 2x2 integer matrix, got {gmat!r}")
        mats.append(ModMatrix.from_rows(ctx, gmat))
    return close_group(mats, ctx, cap=cap, label=label)
