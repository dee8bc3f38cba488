"""Classification of subgroups of GL_2(F_p) against the mod-p trichotomy.

A subgroup of GL_2(F_p) that can appear as the mod-p image in a failure of
local-global divisibility by a power of p falls into one of three shapes:

1. cyclic of order dividing p - 1 with a generator having eigenvalue 1;
2. (only for p = 2 mod 3) isomorphic to Z/3 or S_3, with the order-3
   elements acting irreducibly;
3. contained in a Borel subgroup and generated by an element of order p
   and an element of order dividing 2 sharing the eigenvalue-1 eigenvector.

The classifier evaluates these as predicates (checked in this order) and
records enough evidence to re-verify the verdict by direct matrix checks.
The scanner enumerates the candidate subgroup shapes of order prime to p,
classifies them, and reads the necessary-condition filter off each verdict.

The scanner never walks all of GL_2(F_p).  An element of order prime to p
is semisimple, so its order is a function of its class: of lambda for
lambda*Id, of (trace, determinant) otherwise.  It keeps, per key (size,
multiset of (order, det, trace)), the subgroup with the least sorted
member tuple, and finds it exactly from two lemmas:

- a cyclic key's winner contains s1, the least companion matrix
  (0, 1, -det, tr) over its non-scalar members, so it is a cyclic
  subgroup of the torus {alpha*Id + beta*s1} of at most p^2 elements;
- every S_3 has a conjugate containing the involution y0 = (0, 1, 1, 0),
  the least invertible matrix, so the S_3 winner is the least <x, y0>,
  over the x = (a, b, -b, -1 - a) with a(-1 - a) + b^2 = 1.

scan_prime_to_p_subgroups gives the proofs.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional

from .errors import ConsistencyError, InputError, ResourceLimitError
from .groups import (
    _IDENTITY,
    FiniteMatrixGroup,
    _apply4,
    _key,
    _mul4,
    _powers4,
    _rows,
    borel_check,
    close_group,
    closure_indices,
    cyclic_walk,
    eigen_data,
    element_order,
)
from .ring import ModulusContext

CASE_CYCLIC = "cyclic-eigenvalue-one"
CASE_S3 = "s3-type"
CASE_BOREL = "borel-shared-line"
CASE_NONE = "none"

SCAN_PRIMES = (5, 7, 11, 13)


class CaseVerdict(NamedTuple):
    case: str
    evidence: dict


def _require_level_one(g: FiniteMatrixGroup):
    if g.ctx.n != 1:
        raise InputError("classification works on groups over F_p (n = 1)")


def _cyclic_generators(orders: list[int]) -> list[int]:
    n = len(orders)
    return [i for i, o in enumerate(orders) if o == n]


def _has_eigenvalue_one(ctx: ModulusContext, x) -> bool:
    """Whether 1 is an eigenvalue of the key x mod p: the characteristic
    polynomial t^2 - tr t + det vanishes at t = 1."""
    a, b, c, d = x
    return (1 - a - d + a * d - b * c) % ctx.p == 0


def _case_cyclic(g: FiniteMatrixGroup, orders: list[int]) -> Optional[dict]:
    n = len(g)
    p = g.ctx.p
    if (p - 1) % n != 0:
        return None
    for idx in _cyclic_generators(orders):
        x = g._keys[idx]
        if _has_eigenvalue_one(g.ctx, x):
            return {
                "generator": _rows(x),
                "order": n,
                "eigenvalues": list(eigen_data(g.ctx, x).eigenvalues),
            }
    return None


def _case_s3(g: FiniteMatrixGroup, orders: list[int]) -> Optional[dict]:
    """Z/3 or S_3 for p = 2 mod 3, by the order of g alone once S_3 is told
    from the cyclic group of order 6.

    A group of order 3 or 6 has an element of order 3 (Cauchy), and a group
    of order 3 is cyclic.  Its order-3 elements act irreducibly: for
    p = 2 mod 3 the only cube root of unity in F_p is 1, so an element of
    order 3 has minimal polynomial t^2 + t + 1, which has no root in F_p.
    """
    p = g.ctx.p
    n = len(g)
    if p % 3 != 2 or n not in (3, 6) or (n == 6 and g.is_abelian()):
        return None
    order3 = next(g._keys[i] for i, o in enumerate(orders) if o == 3)
    return {
        "isomorphism_type": "C3" if n == 3 else "S3",
        "order": n,
        "order_3_element": _rows(order3),
        "irreducible_characteristic_polynomial": True,
    }


def _case_borel(g: FiniteMatrixGroup, orders: list[int]) -> Optional[dict]:
    """The first (s, g) with s of order p, g of order at most 2, <s, g> = G
    and a nonzero vector that both fix, with that vector.

    The vector is read off v, the line that borel_check finds stabilised by
    G.  Over F_p an element s of order p is unipotent and not Id, so it
    stabilises exactly one line and fixes every vector on it; <s, g> = G
    stabilises the line of v, so that is the line.  The vectors that s and
    g both fix are therefore the line of v when g v = v, and 0 otherwise.
    v has leading entry 1 (groups.line_representatives), which is the
    Howell row of its line; the tests keep zmod.fixed_submodule as the
    oracle.
    """
    p = g.ctx.p
    order_p = [i for i, o in enumerate(orders) if o == p]
    v = borel_check(g) if order_p else None
    if v is None:
        return None
    involutions = [i for i, o in enumerate(orders) if o in (1, 2)]
    for si in order_p:
        s_key = g._keys[si]
        for gi in involutions:
            if closure_indices(g, [si, gi]) != frozenset(range(len(g))):
                continue
            g_key = g._keys[gi]
            if _apply4(g_key, v, p) == v:
                return {
                    "sigma": _rows(s_key),
                    "g": _rows(g_key),
                    "shared_eigenvector": list(v),
                }
    return None


def classify_mod_p_group(g: FiniteMatrixGroup) -> CaseVerdict:
    """Assign the trichotomy case, trying the shapes in order 1, 2, 3.

    The verdict is re-checked against its recorded evidence
    (reverify_verdict) before it is returned; a failed re-check raises
    ConsistencyError.
    """
    _require_level_one(g)
    orders = cyclic_walk(g)[0]
    verdict = CaseVerdict(CASE_NONE, {})
    for case, find in ((CASE_CYCLIC, _case_cyclic), (CASE_S3, _case_s3), (CASE_BOREL, _case_borel)):
        ev = find(g, orders)
        if ev is not None:
            verdict = CaseVerdict(case, ev)
            break
    if not reverify_verdict(g, verdict):
        raise ConsistencyError(f"the {verdict.case} verdict fails the re-check of its evidence")
    return verdict


def reverify_verdict(g: FiniteMatrixGroup, verdict: CaseVerdict) -> bool:
    """Re-run the defining matrix checks on the recorded evidence.

    Evidence that lacks a field, or names a malformed matrix or vector or
    a matrix outside g, fails the re-check: the answer is False, not an
    exception.  g itself must be over F_p (InputError otherwise).
    """
    _require_level_one(g)
    try:
        return _evidence_holds(g, verdict)
    except (KeyError, TypeError, ValueError):
        # InputError is a ValueError: from _key, element_order or index_of.
        return False


def _evidence_holds(g: FiniteMatrixGroup, verdict: CaseVerdict) -> bool:
    ctx = g.ctx
    p = ctx.p
    ev = verdict.evidence
    if verdict.case == CASE_CYCLIC:
        gen = _key(ctx, ev["generator"])
        return (
            element_order(ctx, gen) == len(g)
            and (p - 1) % len(g) == 0
            and closure_indices(g, [g.index_of(ev["generator"])]) == frozenset(range(len(g)))
            and _has_eigenvalue_one(ctx, gen)
        )
    if verdict.case == CASE_S3:
        x = _key(ctx, ev["order_3_element"])
        ok = x in g._index and element_order(ctx, x) == 3 and eigen_data(ctx, x).irreducible and p % 3 == 2
        if ev["isomorphism_type"] == "C3":
            return ok and len(g) == 3
        return ok and len(g) == 6 and not g.is_abelian()
    if verdict.case == CASE_BOREL:
        s, gm = _key(ctx, ev["sigma"]), _key(ctx, ev["g"])
        v = tuple(x % p for x in ev["shared_eigenvector"])
        return (
            element_order(ctx, s) == p
            and element_order(ctx, gm) in (1, 2)
            and any(v)
            and _apply4(s, v, p) == v
            and _apply4(gm, v, p) == v
            and closure_indices(g, [g.index_of(ev["sigma"]), g.index_of(ev["g"])]) == frozenset(range(len(g)))
        )
    return verdict.case == CASE_NONE


# ---------------------------------------------------------------------------
# Necessary-condition filter.


class FilterVerdict(NamedTuple):
    passes: bool
    reasons: tuple[str, ...]

    def to_json(self) -> dict:
        return {"passes": self.passes, "reasons": list(self.reasons)}


def necessary_shape_filter(g: FiniteMatrixGroup) -> FilterVerdict:
    """Whether the group matches a shape that non-vanishing allows at all.

    Order prime to p, read off classify_mod_p_group's verdict: cyclic of
    order dividing p - 1 generated by an element fixing a torsion point
    (eigenvalue 1), or, for p = 2 mod 3, isomorphic to Z/3 or S_3.  Order
    divisible by p: contained in a Borel and either cyclic of order p or
    generated by an order-p element and an order-2 element distinct from -Id.
    """
    _require_level_one(g)
    p = g.ctx.p
    n = len(g)
    if n % p != 0:
        return _prime_to_p_filter(classify_mod_p_group(g), n, p)
    if borel_check(g) is None:
        return FilterVerdict(False, ("order divisible by p but not contained in a Borel subgroup",))
    if n == p:
        return FilterVerdict(True, ("cyclic-of-order-p",))
    orders = cyclic_walk(g)[0]
    minus_id = (p - 1, 0, 0, p - 1)
    order_p = [i for i, o in enumerate(orders) if o == p]
    for si in order_p:
        for i, o in enumerate(orders):
            if o == 2 and g._keys[i] != minus_id:
                if closure_indices(g, [si, i]) == frozenset(range(len(g))):
                    return FilterVerdict(True, ("borel-order-p-and-order-2",))
    return FilterVerdict(False, ("Borel but not generated by an order-p and an admissible order-2 element",))


def _prime_to_p_filter(verdict: CaseVerdict, n: int, p: int) -> FilterVerdict:
    """The filter of a group of order n prime to p, read off its verdict:
    it passes in cases 1 and 2, as case 3 needs an element of order p."""
    if verdict.case == CASE_CYCLIC:
        return FilterVerdict(True, ("cyclic-with-fixed-torsion-point",))
    if verdict.case == CASE_S3:
        return FilterVerdict(True, ("cyclic-of-order-3" if verdict.evidence["isomorphism_type"] == "C3" else "s3",))
    reason = ("cyclic shape: no generator with eigenvalue 1" if (p - 1) % n == 0
              else "order prime to p but not dividing p - 1")
    return FilterVerdict(False, (reason, "not of S_3 type"))


# ---------------------------------------------------------------------------
# Scanner.


class ScanEntry(NamedTuple):
    order: int
    generators: tuple
    verdict: CaseVerdict
    shape_filter: FilterVerdict

    def to_json(self) -> dict:
        return {
            "case": self.verdict.case,
            "order": self.order,
            "generators": [m for m in self.generators],
            "evidence": self.verdict.evidence,
            "shape_filter": self.shape_filter.to_json(),
        }


def _trdet(x, p: int) -> tuple[int, int]:
    """(trace, determinant) of the key x modulo p: its conjugacy class
    when x is semisimple and not scalar, and tr^2 = 4 det when it is scalar."""
    a, b, c, d = x
    return ((a + d) % p, (a * d - b * c) % p)


def _class_orders(p: int):
    """(orders, spans): the order of every element of GL_2(F_p) of order
    prime to p as a class function, orders[_trdet(x, p)], and the power
    lists walked to find them.

    Such an element is semisimple, so it is scalar exactly when
    tr^2 - 4 det = 0, and otherwise conjugate to its companion matrix
    (0, 1, -det, tr).  The walks run over each lambda*Id and each
    (0, 1, c, d) with d^2 + 4c != 0; a (0, 1, c, d) with d^2 + 4c = 0 is
    lambda times a unipotent, of order divisible by p.  A walk from x of
    order k gives every x^j with gcd(j, k) = 1 order k, and a class whose
    order is known is not walked again, since its subgroup is conjugate to
    one already walked: spans holds, up to conjugacy, every cyclic subgroup
    of order prime to p.
    """
    gens = [(lam, 0, 0, lam) for lam in range(1, p)]
    gens += [(0, 1, c, d) for c in range(1, p) for d in range(p) if (d * d + 4 * c) % p]
    orders: dict[tuple[int, int], int] = {}
    spans = []
    for x in gens:
        if _trdet(x, p) in orders:
            continue
        span = _powers4(x, p)
        k = len(span)
        # j = 0 passes only for k = 1, where it records the identity.
        for j in range(k):
            if gcd(j, k) == 1:
                orders[_trdet(span[j], p)] = k
        spans.append(span)
    return orders, spans


def _s3_order3_elements(p: int) -> list:
    """The x = (a, b, -b, -1 - a) with a(-1 - a) + b^2 = 1 mod p: the
    elements of order 3 that y0 = (0, 1, 1, 0) inverts.

    y0 x y0 = x^-1 forces det x = 1 and c = -b, and an order-3 element of
    determinant 1 has characteristic polynomial t^2 + t + 1 (p > 3), so
    trace -1; conversely that polynomial gives x^3 = Id with x != Id.
    """
    return [
        (a, b, -b % p, (-1 - a) % p)
        for a in range(p)
        for b in range(p)
        if (b * b - a * a - a - 1) % p == 0
    ]


def scan_prime_to_p_subgroups(p: int) -> list[ScanEntry]:
    """Inventory of the candidate subgroups of GL_2(F_p) of order prime
    to p, classified case by case.

    The subgroups are every cyclic subgroup of order prime to p and every
    S_3 = <x, y> with x of order 3 and y an involution inverting it,
    deduplicated by the key (size, fp), fp the sorted multiset of
    (order, determinant, trace) over the members.  Each key keeps its
    winner: the subgroup with the lexicographically least sorted member
    tuple, generated by its least member of order k = size, or for S_3
    by (min(x, x^2), y).  The search runs one conjugacy class at a time
    and is exact by two lemmas:

    - A cyclic key with a non-scalar entry: let s1 be the least companion
      matrix (0, 1, -det, tr) over its non-scalar entries.  The winner
      contains s1.  Conjugating any subgroup of the key to contain the
      companion matrix of one of its members keeps the key, so the least
      member of the winner is at most s1.  Every matrix with a = 0 sorts
      before every matrix with a >= 1, and a least member (0, 1, c, d) is
      the companion matrix of its own class, hence at least s1.  So the
      winner is among the cyclic subgroups of order k of the torus
      {alpha*Id + beta*s1}, the centraliser of s1, that contain s1 and
      have fp.  A key whose entries are all scalar has one subgroup.
    - S_3: every non-central involution is conjugate to y0 = (0, 1, 1, 0),
      the least invertible matrix, and every S_3 has the same key, so the
      winner is the least <x, y0> over the x of _s3_order3_elements.

    The walks of _class_orders reach every key, since every cyclic
    subgroup is conjugate to one of theirs.
    """
    if p not in SCAN_PRIMES:
        raise ResourceLimitError(f"scan is capped to p in {SCAN_PRIMES}")
    ctx = ModulusContext(p, 1)
    orders, spans = _class_orders(p)

    def order(x):
        return orders[_trdet(x, p)]

    def key_of(members):
        fp = tuple(sorted((orders[t], t[1], t[0]) for t in (_trdet(m, p) for m in members)))
        return (len(members), fp)

    # The keys by their s1, the least companion matrix over the non-scalar
    # entries, each with one of its subgroups; s1 is None for a subgroup of
    # scalars, the only subgroup of its key.
    by_s1: dict = {}
    for span in spans:
        key = key_of(span)
        s1 = min(
            ((0, 1, -det % p, tr) for _o, det, tr in key[1] if (tr * tr - 4 * det) % p),
            default=None,
        )
        by_s1.setdefault(s1, {})[key] = span

    best: dict[tuple, tuple] = {}
    for s1, keys in by_s1.items():
        if s1 is None:
            best.update((key, tuple(sorted(span))) for key, span in keys.items())
            continue
        # The torus alpha*Id + beta*s1, one cyclic subgroup at a time: a
        # walk marks the generators of its subgroup as seen.
        _, _, c, d = s1
        sizes = {size for size, _fp in keys}
        seen = set()
        for alpha in range(p):
            for beta in range(p):
                x = (alpha, beta, beta * c % p, (alpha + beta * d) % p)
                if (alpha * x[3] - beta * x[2]) % p == 0 or x in seen:
                    continue
                k = order(x)
                if k not in sizes:
                    continue
                span = _powers4(x, p)
                seen.update(span[j] for j in range(k) if gcd(j, k) == 1)
                if s1 not in span:
                    continue
                key = key_of(span)
                if key in keys:
                    members = tuple(sorted(span))
                    if key not in best or members < best[key]:
                        best[key] = members
    winners = {key: (min(m for m in members if order(m) == key[0]),) for key, members in best.items()}

    # The conic b^2 = a^2 + a + 1 has p - 1 or p + 1 points, so s3 is not empty.
    y0 = (0, 1, 1, 0)
    s3 = []
    for x in _s3_order3_elements(p):
        x2 = _mul4(x, x, p)
        yx = _mul4(y0, x, p)
        s3.append((tuple(sorted((_IDENTITY, x, x2, y0, yx, _mul4(yx, x, p)))), (min(x, x2), y0)))
    members, gens = min(s3)
    winners[key_of(members)] = gens

    entries = []
    for (size, _fp), gens in sorted(winners.items()):
        gen_rows = tuple(map(_rows, gens))
        group = close_group(gen_rows, ctx)
        if len(group) != size:
            raise ConsistencyError("scanner generators do not close to the recorded subgroup")
        verdict = classify_mod_p_group(group)
        filt = _prime_to_p_filter(verdict, size, p)
        entries.append(ScanEntry(order=size, generators=gen_rows, verdict=verdict, shape_filter=filt))
    entries.sort(key=lambda e: (e.order, e.generators))
    return entries
