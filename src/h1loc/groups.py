"""Finite subgroups of GL_2(Z/p^n): enumeration and structural queries.

Groups are closed from generators with a breadth-first traversal whose
frontier order is fixed by the generator list, so element indices are
reproducible run to run.  An element is its index and its 4-tuple of
reduced entries (its key); index 0 is always the identity, and no other
per-element object exists.  A caller writes a 2x2 matrix as rows
[[a, b], [c, d]] (close_group, index_of, the JSON form); _key turns rows
into a key and _rows a key back into rows, and every other function here
takes keys.  _mul4, _inv4, _pow4, _powers4, _invertible4 and _close_keys
are the package's only 2x2 group arithmetic, and _apply4 is its 2x2
matrix-vector product.  A group is final once closed: its keys, index,
edge table and the position of the first edge into each element (its
spanning tree) are all it holds, and no query adds to them.
"""

from __future__ import annotations

import itertools
import warnings
from array import array
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ConsistencyError, ContractError, InputError, ResourceLimitError
from .ring import ModulusContext

DEFAULT_GROUP_CAP = 10**6
# The closure's edge table holds |G| * K entries for K generators; it may
# reach EDGE_FACTOR times the element cap.  A greedy generating set of a
# group of at most 10^6 elements has at most 20 members, since each one at
# least doubles the span.
EDGE_FACTOR = 32

_IDENTITY = (1, 0, 0, 1)


def _is_integer(x) -> bool:
    """An integer entry; bool is an int subclass in Python but not an entry."""
    return isinstance(x, int) and not isinstance(x, bool)


def _key(ctx: ModulusContext, rows) -> tuple[int, int, int, int]:
    """The key of the 2x2 matrix with integer rows [[a, b], [c, d]]: its
    entries row-major, reduced modulo p^n.  Any other shape or entry is an
    InputError."""
    try:
        (a, b), (c, d) = rows
        valid = all(map(_is_integer, (a, b, c, d)))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise InputError(f"a matrix must be 2x2 integer rows [[a, b], [c, d]], got {rows!r}")
    q = ctx.modulus
    return (a % q, b % q, c % q, d % q)


def _rows(x) -> list[list[int]]:
    """The key x as rows [[a, b], [c, d]]."""
    a, b, c, d = x
    return [[a, b], [c, d]]


def _invertible4(x, p) -> bool:
    """Whether the key's determinant is a unit, that is nonzero mod p."""
    a, b, c, d = x
    return (a * d - b * c) % p != 0


def _mul4(x, y, q):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % q, (a * f + b * h) % q, (c * e + d * g) % q, (c * f + d * h) % q)


def _apply4(x, v, q) -> tuple[int, int]:
    """x v for the key x and the pair v, reduced modulo q."""
    a, b, c, d = x
    v0, v1 = v
    return ((a * v0 + b * v1) % q, (c * v0 + d * v1) % q)


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

    Returns (keys, index, right, first): keys[0] is the identity, index
    maps each key to its position, keys are listed in breadth-first order,
    right[i * K + j] is the index of keys[i] * gen_keys[j] for
    K = len(gen_keys), and first[t] is the position in right of the first
    edge into element t > 0 (first[0] = 0).  The K edge targets the walk
    computes anyway keep memory linear in the group order.  first is the
    walk's breadth-first spanning tree: divmod(first[t], K) is the parent
    of t and the slot of the generator that first reaches it, and since
    the walk numbers the elements in the order it reaches them, index
    order is breadth-first order.  Raises ResourceLimitError when the
    closure passes cap, or its edge table reaches EDGE_FACTOR * cap.
    """
    keys = [_IDENTITY]
    index = {_IDENTITY: 0}
    right = array("q")
    first = array("q", [0])
    edge_cap = EDGE_FACTOR * cap
    i = 0
    while i < len(keys):
        if len(right) >= edge_cap:
            raise ResourceLimitError(
                f"group closure reached {len(right)} edges for {len(gen_keys)} generators, "
                f"the budget of {EDGE_FACTOR} per element of the cap of {cap}"
            )
        base = keys[i]
        for gk in gen_keys:
            prod = _mul4(base, gk, q)
            t = index.get(prod)
            if t is None:
                t = len(keys)
                if t >= cap:
                    raise ResourceLimitError(f"group closure exceeded the cap of {cap} elements")
                index[prod] = t
                keys.append(prod)
                first.append(len(right))
            right.append(t)
        i += 1
    return keys, index, right, first


class FiniteMatrixGroup:
    """A fully enumerated subgroup of GL_2(Z/p^n).

    Built through close_group; do not mutate after construction.  The
    generators are kept as element indices, distinct and not the identity.
    """

    def __init__(self, ctx, gen_keys, closure, label):
        self.ctx = ctx
        self.label = label
        self._q = ctx.modulus
        self._keys, self._index, self._right, self._first = closure
        self.generators = tuple(self._index[k] for k in gen_keys)

    def __len__(self) -> int:
        return len(self._keys)

    def index_of(self, rows) -> int:
        """The index of the matrix with rows [[a, b], [c, d]]."""
        try:
            return self._index[_key(self.ctx, rows)]
        except KeyError:
            raise InputError("matrix is not an element of this group") from None

    def mult(self, i: int, j: int) -> int:
        return self._index[_mul4(self._keys[i], self._keys[j], self._q)]

    def inv(self, i: int) -> int:
        return self._index[_inv4(self._keys[i], self._q)]

    def edge_targets(self) -> list[array]:
        """Cayley edges of the generators, read off the closure:
        out[s][a] = mult(a, generators[s])."""
        k = len(self.generators)
        return [self._right[s::k] for s in range(k)]

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise; exact, since they
        generate the group."""
        gens = [self._keys[i] for i in self.generators]
        q = self._q
        return all(_mul4(a, b, q) == _mul4(b, a, q) for a, b in itertools.combinations(gens, 2))

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


def close_group(
    gens: Sequence,
    ctx: ModulusContext,
    cap: int = DEFAULT_GROUP_CAP,
    label: Optional[str] = None,
) -> FiniteMatrixGroup:
    """Enumerate the subgroup generated by gens, each given as rows
    [[a, b], [c, d]] and reduced modulo p^n.

    Breadth-first over right multiplication by the generators in their
    listed order; raises ResourceLimitError when the closure passes cap.
    A repeated or identity generator is dropped: it never numbers an
    element first, so the breadth-first order is unchanged.
    """
    keys = [_key(ctx, g) for g in gens]
    if not all(_invertible4(k, ctx.p) for k in keys):
        raise InputError("generator determinant is not a unit: not invertible")
    keys = [k for k in dict.fromkeys(keys) if k != _IDENTITY]
    return FiniteMatrixGroup(ctx, keys, _close_keys(keys, ctx.modulus, cap), label)


def element_order(ctx: ModulusContext, x) -> int:
    """Least k >= 1 with x^k = Id, for the key x over ctx."""
    if not _invertible4(x, ctx.p):
        raise InputError("order is defined for invertible matrices only")
    return len(_powers4(x, ctx.modulus))


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


def quotient_group(g: FiniteMatrixGroup) -> FiniteMatrixGroup:
    """G/G(p) for the reduction kernel G(p), as the mod-p image of g.

    Reduction mod p is a homomorphism whose kernel is exactly G(p), so the
    quotient is its image in GL_2(F_p).  The image is closed from the
    reductions of the generators in their order, so its generators are
    the distinct non-identity reductions, in the order of the first
    generator of g reducing to each.  image_indices maps the
    elements of g onto it.
    """
    ctx_p = ModulusContext(g.ctx.p, 1)
    gens = [_rows(g._keys[i]) for i in g.generators]
    return close_group(gens, ctx_p, label=f"{g.label} mod p" if g.label else None)


def image_indices(g: FiniteMatrixGroup, image: FiniteMatrixGroup) -> array:
    """Every element's index in the mod-p image, in one pass:
    out[i] is the index in image of element i reduced mod p.

    Raises ContractError unless image is the mod-p image of g, that is,
    unless every element reduces into image and every element of image is
    hit.
    """
    p = g.ctx.p
    if image.ctx != ModulusContext(p, 1):
        raise ContractError("the image must be a group over F_p for the same p")
    index = image._index
    try:
        out = array("q", [index[(a % p, b % p, c % p, d % p)] for a, b, c, d in g._keys])
    except KeyError:
        raise ContractError("an element reduces outside the given group") from None
    if len(set(out)) != len(image):
        raise ContractError("the given group is larger than the mod-p image")
    return out


def cyclic_walk(g: FiniteMatrixGroup) -> tuple[list[int], list[int]]:
    """(orders, owners): the order of every element, and for each element y
    the least generator of <y> when <y> is a maximal cyclic subgroup, else
    0 (the identity's owner is 0).

    Each cyclic subgroup is walked once, from its first element in index
    order not yet reached, x: the power list [Id, x, ..., x^(k-1)] is the
    whole subgroup, x^j has order k / gcd(j, k), and the x^j with
    gcd(j, k) = 1 are its other generators, which get owner x.  A power
    with gcd(j, k) > 1 lies in the larger subgroup <x> and gets owner 0; no
    later walk reaches a generator of <x>, since it would start inside <x>.
    """
    n = len(g)
    orders = [0] * n
    owners = [-1] * n
    index = g._index
    for x, key in enumerate(g._keys):
        if orders[x]:
            continue
        span = _powers4(key, g._q)
        k = len(span)
        for j, y in enumerate(span):
            i = index[y]
            d = gcd(j, k)
            orders[i] = k // d
            owners[i] = x if d == 1 else 0
    return orders, owners


def closure_indices(g: FiniteMatrixGroup, gen_indices: Sequence[int]) -> frozenset[int]:
    """Subgroup of g generated by the given element indices."""
    keys = _close_keys([g._keys[i] for i in gen_indices], g._q, len(g))[0]
    return frozenset(map(g._index.__getitem__, keys))


class EigenData(NamedTuple):
    """Mod-p spectral data of a 2x2 matrix: roots of the characteristic
    polynomial over F_p with multiplicity, and an irreducibility flag."""

    p: int
    eigenvalues: tuple[int, ...]
    irreducible: bool


def eigen_data(ctx: ModulusContext, x) -> EigenData:
    """The mod-p spectral data of the key x over ctx."""
    p = ctx.p
    a, b, c, d = (e % p for e in x)
    tr = (a + d) % p
    det = (a * d - b * c) % p
    roots = [lam for lam in range(p) if (lam * lam - tr * lam + det) % p == 0]
    if not roots:
        return EigenData(p, (), True)
    return EigenData(p, (roots[0], roots[0]) if len(roots) == 1 else tuple(roots), False)


def line_representatives(p: int) -> list[tuple[int, int]]:
    """The p + 1 lines of F_p^2, e_1 first by convention."""
    return [(1, 0), (0, 1)] + [(1, t) for t in range(1, p)]


def borel_check(g: FiniteMatrixGroup) -> Optional[tuple[int, int]]:
    """A mod-p vector spanning a line stabilized by every element, if any.

    A common eigenvector mod p is exactly what membership in a Borel
    subgroup means here.  Checked on the generators; stabilizing a line is
    closed under products and inverses.
    """
    p = g.ctx.p
    gens = [g._keys[i] for i in g.generators]
    for v0, v1 in line_representatives(p):
        images = (_apply4(x, (v0, v1), p) for x in gens)
        # x v lies on the line of v exactly when det [x v | v] = 0.
        if all((w0 * v1 - w1 * v0) % p == 0 for w0, w1 in images):
            return v0, v1
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


def power_identity_trials(ctx: ModulusContext, rng, trials: int) -> int:
    """How many of trials random shape tuples pass power_identity_check:
    each tuple (a, b, c, d) is four draws rng.randrange(p^n) in order."""
    q = ctx.modulus
    return sum(
        power_identity_check(rng.randrange(q), rng.randrange(q), rng.randrange(q), rng.randrange(q), ctx)
        for _ in range(trials)
    )


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
    return close_group(gens, ctx, cap=cap, label=label)
