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
classifies them, and also applies the coarser necessary-condition filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .errors import ContractError, InputError, ResourceLimitError
from .groups import (
    FiniteMatrixGroup,
    _close_keys,
    _mul4,
    _powers4,
    borel_check,
    close_group,
    closure_indices,
    eigen_data,
    element_order,
)
from .zmod import ModMatrix, ModulusContext

CASE_CYCLIC = "cyclic-eigenvalue-one"
CASE_S3 = "s3-type"
CASE_BOREL = "borel-shared-line"
CASE_NONE = "none"

SCAN_PRIMES = (5, 7, 11, 13)


@dataclass(frozen=True)
class CaseVerdict:
    case: str
    evidence: dict

    def to_json(self) -> dict:
        return {"case": self.case, "evidence": self.evidence}


def _require_level_one(g: FiniteMatrixGroup):
    if g.ctx.n != 1:
        raise InputError("classification works on groups over F_p (n = 1)")


def _order_table(g: FiniteMatrixGroup) -> list[int]:
    """The order of every element, by index.  One power walk per cyclic
    subgroup not yet seen: if x has order k, x^j has order k / gcd(j, k)."""
    orders = [0] * len(g)
    for i, key in enumerate(g._keys):
        if not orders[i]:
            span = _powers4(key, g._q)
            k = len(span)
            for j, y in enumerate(span):
                orders[g._index[y]] = k // gcd(j, k)
    return orders


def _cyclic_generators(orders: list[int]) -> list[int]:
    n = len(orders)
    return [i for i, o in enumerate(orders) if o == n]


def _has_eigenvalue_one(mat: ModMatrix) -> bool:
    data = eigen_data(mat)
    return 1 in data.eigenvalues


def _case_cyclic(g: FiniteMatrixGroup, orders: list[int]) -> Optional[dict]:
    n = len(g)
    p = g.ctx.p
    if (p - 1) % n != 0:
        return None
    for idx in _cyclic_generators(orders):
        mat = g.matrix(idx)
        if _has_eigenvalue_one(mat):
            return {
                "generator": mat.row_lists(),
                "order": n,
                "eigenvalues": list(eigen_data(mat).eigenvalues),
            }
    return None


def _case_s3(g: FiniteMatrixGroup, orders: list[int]) -> Optional[dict]:
    p = g.ctx.p
    if p % 3 != 2:
        return None
    n = len(g)
    if n not in (3, 6):
        return None
    order3 = [g.matrix(i) for i, o in enumerate(orders) if o == 3]
    if not order3 or any(not eigen_data(m).irreducible for m in order3):
        return None
    if n == 3:
        if not _cyclic_generators(orders):
            return None
        iso = "C3"
    else:
        if g.multiplication_table() and all(
            g.mult(a, b) == g.mult(b, a) for a in range(n) for b in range(n)
        ):
            return None
        iso = "S3"
    return {
        "isomorphism_type": iso,
        "order": n,
        "order_3_element": order3[0].row_lists(),
        "irreducible_characteristic_polynomial": True,
    }


def _case_borel(g: FiniteMatrixGroup, orders: list[int]) -> Optional[dict]:
    p = g.ctx.p
    if borel_check(g) is None:
        return None
    order_p = [i for i, o in enumerate(orders) if o == p]
    involutions = [i for i, o in enumerate(orders) if o in (1, 2)]
    for si in order_p:
        s_mat = g.matrix(si)
        s_fix = eigen_data(s_mat).vectors_for(1)
        if s_fix is None or s_fix.is_zero():
            continue
        for gi in involutions:
            if closure_indices(g, [si, gi]) != frozenset(range(len(g))):
                continue
            g_mat = g.matrix(gi)
            shared = None
            for vec in s_fix.enumerate_span():
                if vec.is_zero():
                    continue
                if g_mat.vec_mul(vec) == vec:
                    shared = vec
                    break
            if shared is not None:
                return {
                    "sigma": s_mat.row_lists(),
                    "g": g_mat.row_lists(),
                    "shared_eigenvector": list(shared.coords),
                }
    return None


def classify_mod_p_group(g: FiniteMatrixGroup) -> CaseVerdict:
    """Assign the trichotomy case, trying the shapes in order 1, 2, 3."""
    _require_level_one(g)
    orders = _order_table(g)
    ev = _case_cyclic(g, orders)
    if ev is not None:
        return CaseVerdict(CASE_CYCLIC, ev)
    ev = _case_s3(g, orders)
    if ev is not None:
        return CaseVerdict(CASE_S3, ev)
    ev = _case_borel(g, orders)
    if ev is not None:
        return CaseVerdict(CASE_BOREL, ev)
    return CaseVerdict(CASE_NONE, {})


def reverify_verdict(g: FiniteMatrixGroup, verdict: CaseVerdict) -> bool:
    """Re-run the defining matrix checks on the recorded evidence."""
    _require_level_one(g)
    p = g.ctx.p
    ev = verdict.evidence
    if verdict.case == CASE_CYCLIC:
        gen = ModMatrix.from_rows(g.ctx, ev["generator"])
        idx = g.index_of(gen)
        return (
            element_order(gen) == len(g)
            and (p - 1) % len(g) == 0
            and closure_indices(g, [idx]) == frozenset(range(len(g)))
            and _has_eigenvalue_one(gen)
        )
    if verdict.case == CASE_S3:
        x = ModMatrix.from_rows(g.ctx, ev["order_3_element"])
        ok = element_order(x) == 3 and eigen_data(x).irreducible and p % 3 == 2
        if ev["isomorphism_type"] == "C3":
            return ok and len(g) == 3
        return ok and len(g) == 6
    if verdict.case == CASE_BOREL:
        s = ModMatrix.from_rows(g.ctx, ev["sigma"])
        gm = ModMatrix.from_rows(g.ctx, ev["g"])
        from .zmod import ModVector

        v = ModVector.make(g.ctx, ev["shared_eigenvector"])
        return (
            element_order(s) == p
            and element_order(gm) in (1, 2)
            and not v.is_zero()
            and s.vec_mul(v) == v
            and gm.vec_mul(v) == v
            and closure_indices(g, [g.index_of(s), g.index_of(gm)]) == frozenset(range(len(g)))
        )
    return verdict.case == CASE_NONE


# ---------------------------------------------------------------------------
# Necessary-condition filter.


@dataclass(frozen=True)
class FilterVerdict:
    passes: bool
    reasons: tuple[str, ...]

    def to_json(self) -> dict:
        return {"passes": self.passes, "reasons": list(self.reasons)}


def necessary_shape_filter(g: FiniteMatrixGroup) -> FilterVerdict:
    """Whether the group matches a shape that non-vanishing allows at all.

    Order prime to p: cyclic of order dividing p - 1 generated by an
    element fixing a torsion point (eigenvalue 1), or, for p = 2 mod 3,
    isomorphic to Z/3 or S_3.  Order divisible by p: contained in a Borel
    and either cyclic of order p or generated by an order-p element and an
    order-2 element distinct from -Id.
    """
    _require_level_one(g)
    p = g.ctx.p
    n = len(g)
    orders = _order_table(g)
    reasons = []
    if n % p != 0:
        if (p - 1) % n == 0:
            for idx in _cyclic_generators(orders):
                if _has_eigenvalue_one(g.matrix(idx)):
                    return FilterVerdict(True, ("cyclic-with-fixed-torsion-point",))
            reasons.append("cyclic shape: no generator with eigenvalue 1")
        else:
            reasons.append("order prime to p but not dividing p - 1")
        if p % 3 == 2 and n == 3 and _cyclic_generators(orders):
            return FilterVerdict(True, ("cyclic-of-order-3",))
        if p % 3 == 2 and n == 6 and not all(
            g.mult(a, b) == g.mult(b, a) for a in range(n) for b in range(n)
        ):
            return FilterVerdict(True, ("s3",))
        reasons.append("not of S_3 type")
        return FilterVerdict(False, tuple(reasons))
    if borel_check(g) is None:
        return FilterVerdict(False, ("order divisible by p but not contained in a Borel subgroup",))
    if n == p and _cyclic_generators(orders):
        return FilterVerdict(True, ("cyclic-of-order-p",))
    minus_id = (p - 1, 0, 0, p - 1)
    order_p = [i for i, o in enumerate(orders) if o == p]
    for si in order_p:
        for i, o in enumerate(orders):
            if o == 2 and g._keys[i] != minus_id:
                if closure_indices(g, [si, i]) == frozenset(range(len(g))):
                    return FilterVerdict(True, ("borel-order-p-and-order-2",))
    return FilterVerdict(False, ("Borel but not generated by an order-p and an admissible order-2 element",))


# ---------------------------------------------------------------------------
# Scanner.


@dataclass(frozen=True)
class ScanEntry:
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


def _gl2_elements(p: int):
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p:
                        yield (a, b, c, d)


def _cyclic_pass(p: int):
    """The scanner's first pass over GL_2(F_p), in _gl2_elements order.

    Returns (orders, subgroups, order2, order3): the order of every
    element (the identity included), each cyclic subgroup of order prime
    to p keyed by its element set and mapped to (first generator,), and
    the elements of order 2 and of order 3 in enumeration order.

    Each cyclic subgroup is walked once, from its first generator x in
    enumeration order: the power list [Id, x, ..., x^(k-1)] is the whole
    subgroup, and x^j with gcd(j, k) = 1 are exactly its other generators,
    so they get order k without a walk of their own.
    """
    orders: dict[tuple, int] = {}
    subgroups: dict[frozenset, tuple] = {}
    order2 = []
    order3 = []
    for key in _gl2_elements(p):
        o = orders.get(key)
        if o is None:
            span = _powers4(key, p)
            o = len(span)
            # j = 0 passes only for k = 1, where it records the identity.
            for j in range(o):
                if gcd(j, o) == 1:
                    orders[span[j]] = o
            if o % p:
                subgroups[frozenset(span)] = (key,)
        if o == 2:
            order2.append(key)
        elif o == 3:
            order3.append(key)
    return orders, subgroups, order2, order3


def scan_prime_to_p_subgroups(p: int) -> list[ScanEntry]:
    """Inventory of the candidate subgroups of GL_2(F_p) of order prime
    to p, classified case by case.

    Enumerates every cyclic subgroup generated by an element of order
    coprime to p, walking each one once and keeping its first generator
    in enumeration order, plus every subgroup generated by an order-3
    element and an order-2 element inverting it.  Deduplication is up to
    conjugacy via the multiset of (order, determinant, trace) fingerprints;
    within one fingerprint class the representative with the
    lexicographically least element set is kept.
    """
    if p not in SCAN_PRIMES:
        raise ResourceLimitError(f"scan is capped to p in {SCAN_PRIMES}")
    ctx = ModulusContext(p, 1)
    orders, subgroups, order2, order3 = _cyclic_pass(p)

    for x in order3:
        for y in order2:
            # y = y^-1, so y x y = x^-1 iff (y x)^2 = Id; y x = Id cannot
            # hold, as x and y have different orders.
            if orders[_mul4(y, x, p)] == 2:
                members = frozenset(_close_keys((x, y), p)[0])
                if members not in subgroups:
                    subgroups[members] = (x, y)

    by_fingerprint: dict[tuple, tuple[frozenset, tuple]] = {}
    for members, gens in subgroups.items():
        fp = tuple(
            sorted(
                (orders[m], (m[0] * m[3] - m[1] * m[2]) % p, (m[0] + m[3]) % p)
                for m in members
            )
        )
        key = (len(members), fp)
        candidate = (tuple(sorted(members)), gens)
        if key not in by_fingerprint or candidate[0] < by_fingerprint[key][0]:
            by_fingerprint[key] = candidate
    entries = []
    for (size, _fp), (sorted_members, gens) in sorted(by_fingerprint.items()):
        gen_mats = [ModMatrix.from_rows(ctx, [[k[0], k[1]], [k[2], k[3]]]) for k in gens]
        group = close_group(gen_mats, ctx)
        if len(group) != size:
            raise ContractError("scanner generators do not close to the recorded subgroup")
        verdict = classify_mod_p_group(group)
        filt = necessary_shape_filter(group)
        entries.append(
            ScanEntry(
                order=size,
                generators=tuple([[k[0], k[1]], [k[2], k[3]]] for k in gens),
                verdict=verdict,
                shape_filter=filt,
            )
        )
    entries.sort(key=lambda e: (e.order, e.generators))
    return entries
