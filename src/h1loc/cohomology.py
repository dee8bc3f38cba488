"""First cohomology of finite matrix groups acting on (Z/p^n)^2.

Computes the cocycle space Z^1, the coboundary space B^1, H^1 = Z^1/B^1,
the subspace of cocycles that are locally coboundaries at every group
element, and the resulting first local cohomology group: what the h1 and
h1loc commands run.  Restriction, inflation, equivariant homomorphisms and
the inflation-restriction check serve only the paper's constructions and
live in constructions.

A cocycle is a map Z from the group to the module with
Z(ab) = Z(a) + a.Z(b); it is determined by its values on a generating
set.  The engine therefore works in the coordinate space of generator
values: a breadth-first spanning tree of the Cayley graph expresses every
element's value as a linear function of the generator values, every
Cayley edge off the tree gives a linear consistency constraint, and Z^1
is their common kernel.  Only the constraints of the edges into the
identity and of edges that a candidate cocycle breaks are harvested, round
by round, until the kernel is spanned by coboundaries and candidates that
pass the cocycle identity (see CocycleSystem).  Local conditions add the
linear equations that pin Z(g) inside the image of g - Id, for one
generator g of each conjugacy class of maximal cyclic subgroups; on a
cocycle they imply the condition at every group element (see
CocycleSystem.local_representatives).  Reports hold their generators as
coordinates; only h1_loc expands any into value tables.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .errors import ConsistencyError, ContractError, DimensionError, InputError, ResourceLimitError
from .groups import FiniteMatrixGroup, _inv4, _mul4, cyclic_walk
from .ring import ModulusContext, _Frozen
from .zmod import (
    SubmoduleBasis,
    _howell_raw,
    _kernel_raw,
    howell_from_rows,
    kernel_basis,
    quotient_structure,
    solve2,
)

FULL = "full"
TORSION = "p_torsion"
QUOTIENT = "mod_p_quotient"

_MODULE_LABELS = {FULL: "V", TORSION: "V[p]", QUOTIENT: "V/V[p]"}

# Cap on the tables times elements that h1_loc's cross-check tests.
CLASS_ENUM_WORK_LIMIT = 2 * 10**6
# Cap on |G| * dim, checked before a CocycleSystem allocates anything per
# element: each walk of the harvest fills a table of |G| values and checks
# up to |G| * dim / 2 Cayley edges.
SYSTEM_WORK_LIMIT = 2 * 10**5


class GModule(_Frozen):
    """One of the three coefficient modules: V, its p-torsion, or V/V[p].

    V = (Z/p^n)^2 with the natural matrix action.  The p-torsion V[p] and
    the quotient V/V[p] are carried in their own coordinates (over Z/p and
    Z/p^(n-1)), with the action given by reducing the acting matrix.
    Equal and hashed by (ctx, kind).
    """

    # coeff_ctx, the coefficient ring Z/p^n, Z/p or Z/p^(n-1), is set once from kind.
    __slots__ = ("ctx", "kind", "coeff_ctx")
    _compared = ("ctx", "kind")

    def __init__(self, ctx: ModulusContext, kind: str):
        if kind not in _MODULE_LABELS:
            raise InputError(f"unknown module kind {kind!r}")
        if kind == QUOTIENT and ctx.n < 2:
            raise InputError("V/V[p] is trivial for n = 1; refusing to build it")
        coeff = ctx if kind == FULL else ModulusContext(ctx.p, 1 if kind == TORSION else ctx.n - 1)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "coeff_ctx", coeff)

    @property
    def label(self) -> str:
        return _MODULE_LABELS[self.kind]

    @property
    def coeff_modulus(self) -> int:
        return self.coeff_ctx.modulus

    def action_entries(self, key: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
        """The action of the group element with this key on the module."""
        q = self.coeff_modulus
        a, b, c, d = key
        return (a % q, b % q, c % q, d % q)

    def action_table(self, group: FiniteMatrixGroup) -> list[tuple[int, int, int, int]]:
        """action_entries of each element of group, by index: its key list when the ring is the group's."""
        if self.coeff_ctx == group.ctx:
            return group._keys
        return [self.action_entries(k) for k in group._keys]

    def torsion_embedding_scale(self) -> int:
        """Multiplier sending V[p] coordinates into V."""
        if self.kind != TORSION:
            raise ContractError("only the p-torsion module embeds by scaling")
        return self.ctx.p ** (self.ctx.n - 1)


def full_module(ctx: ModulusContext) -> GModule:
    return GModule(ctx, FULL)


def torsion_module(ctx: ModulusContext) -> GModule:
    return GModule(ctx, TORSION)


def parse_module(ctx: ModulusContext, label: str) -> GModule:
    for kind, lab in _MODULE_LABELS.items():
        if lab == label:
            return GModule(ctx, kind)
    raise InputError(f"unknown module label {label!r} (expected V, V[p] or V/V[p])")


class Cocycle(NamedTuple):
    """A cocycle as its full value table, one module vector per element."""

    group: FiniteMatrixGroup
    module: GModule
    values: tuple[tuple[int, int], ...]

    def is_zero(self) -> bool:
        return all(v == (0, 0) for v in self.values)

    def to_full_module(self) -> "Cocycle":
        """Push a p-torsion valued cocycle into V along the inclusion."""
        s = self.module.torsion_embedding_scale()
        target = full_module(self.module.ctx)
        q = target.coeff_modulus
        return Cocycle(self.group, target, tuple(((s * a) % q, (s * b) % q) for a, b in self.values))

    def value_table(self) -> list[list[int]]:
        return [list(v) for v in self.values]


def _walk(acts, targets, q: int, coords: Sequence[int]) -> tuple[Optional[tuple[int, int, int]], Optional[list]]:
    """The one check of the cocycle identity on Cayley edges, for the
    generator values u = coords over Z/q: (None, the value table of u's
    expansion) when u is a cocycle's coordinates, else (the first broken
    edge (a, slot, a g_slot), None).

    acts[a] is the action of element a, and targets[slot][a] is a g_slot
    (CocycleSystem.acts and targets).  The walk visits the elements in
    breadth-first order and each one's generator slots in order: the first
    visit to t = a g_slot sets Z(t) = Z(a) + a.u_slot, which is the
    breadth-first tree, and every later visit compares that sum with Z(t)
    and stops at the first edge that breaks.  Tree edges hold by
    construction, so a walk that ends has checked the identity on every
    Cayley edge.  Every generator is a child of the root along its own
    slot (close_group keeps them distinct and not the identity), so the
    table takes the value u_slot at generator slot.

    The identity on every edge (a, g), g a generator, with Z(1) = 0
    implies it for all pairs, by induction on the length of b as a word in
    the generators: the base case Z(a.1) = Z(a) + a.Z(1) is Z(1) = 0, and
    from the edge (ab, g) and the pair (a, b) follows
    Z(abg) = Z(ab) + ab.Z(g) = Z(a) + a.Z(bg).  Positive words reach every
    element of a finite group once the generators generate it, which
    close_group guarantees.
    """
    slots = [(s, tg, coords[2 * s] % q, coords[2 * s + 1] % q) for s, tg in enumerate(targets)]
    vals: list[Optional[tuple[int, int]]] = [(0, 0)] + [None] * (len(acts) - 1)
    for a in range(len(vals)):
        v0, v1 = vals[a]
        m0, m1, m2, m3 = acts[a]
        for s, tg, g0, g1 in slots:
            w = ((v0 + m0 * g0 + m1 * g1) % q, (v1 + m2 * g0 + m3 * g1) % q)
            t = tg[a]
            old = vals[t]
            if old is None:
                vals[t] = w
            elif old != w:
                return (a, s, t), None
    return None, vals


def verify_cocycle(c: Cocycle) -> bool:
    """Check the defining identity Z(ab) = Z(a) + a.Z(b) for all pairs:
    the walk of c's generator values passes and returns c's own table, so
    Z(1) = 0 and the identity holds on every Cayley edge (see _walk)."""
    group = c.group
    coords = [x for g in group.generators for x in c.values[g]]
    table = _walk(c.module.action_table(group), group.edge_targets(), c.module.coeff_modulus, coords)[1]
    return table is not None and tuple(table) == c.values


# ---------------------------------------------------------------------------
# The generator-coordinate system.


class CocycleSystem:
    """Shared scaffolding for one (group, module) pair.

    Reads the breadth-first spanning tree of the Cayley graph that the
    closure recorded (element i > 0 is first reached from its parent along
    generator slot, (parent, slot) = divmod(group._first[i], k); element
    indices are in breadth-first order), which expresses every element's
    cocycle value as a linear map L[i] of the generator values u
    (Z(element i) = L[i] u), and holds lazily computed bases of Z^1, B^1
    and the local cocycle space, all in the generator coordinate space
    (Z/q)^(2k).  L[i] is built on demand down the tree path and memoised.
    Raises ResourceLimitError before any per-element table is built when
    |G| * dim passes SYSTEM_WORK_LIMIT.

    The walk of u is the module function _walk on this system's acts and
    targets: its first visits follow the closure's tree, so a walk that
    ends has checked the cocycle identity on every Cayley edge, and its
    table is u's expansion.

    Z^1 is cut out by the consistency rows L[t] - (L[a] + act(a) E_slot) of
    the Cayley edges a -> t = a g_slot off the tree, but only some are
    harvested (constraint_basis).  The harvest is seeded with the rows of
    the k edges into the identity, (g_slot^-1, slot, 0), which are off the
    tree since no tree edge enters the root.  Each round takes K, the
    kernel of the rows so far, and walks the probe, the sum of the rows of
    K's Howell basis, then each row of K; a candidate that B^1 and the
    candidates that passed in this or any earlier round already span is
    not walked.  The first walk that breaks gives the rows of its edge to
    the harvest; the rounds stop when nothing breaks.  Coboundaries are cocycles, so the rounds walk only
    what B^1 does not give: on borel-shared p=17 (rank B^1 = 2,
    rank Z^1 = 3) the seeded harvest makes three walks, and only its last,
    the probe that passes, goes far into the group.  At the end B^1 must
    lie in K (ConsistencyError otherwise), which is the check that
    coboundaries are cocycles, so b1() does not need Z^1.

    Exactness: the harvested rows are some of the consistency rows, so
    Z^1 is in K.  The walk of u takes the value u_slot at generator slot,
    so a vector that passes is a cocycle's coordinates.  A row of B^1 is
    the coordinates of the coboundary of a basis vector m, which expands to
    the table of delta m and so satisfies the identity on every edge.  The
    last round ends with K spanned by B^1 and every vector that walked
    clean in any round, all in Z^1, so K is in Z^1, and K = Z^1.  (A vector
    that walked clean lies in Z^1 and so in every later K, which is why the
    rounds keep them.)
    Z/p^n is quasi-Frobenius, so the harvested rows span the annihilator
    of K, the same submodule as all the consistency rows, and their Howell
    basis is the same, row for row.

    Termination: the rows of a broken edge do not vanish on the vector
    that broke it (checked; ConsistencyError otherwise), so each round
    strictly shrinks K.  A chain of submodules of (Z/p^n)^dim has at most
    n * dim steps, so after n * dim + 1 rounds the harvest gives up with
    ConsistencyError.
    """

    def __init__(self, group: FiniteMatrixGroup, module: GModule):
        if group.ctx != module.ctx:
            raise DimensionError("module coefficients do not match the group ring")
        self.group = group
        self.module = module
        self.gens = group.generators
        self.k = len(self.gens)
        self.dim = 2 * self.k
        n = len(group)
        if n * self.dim > SYSTEM_WORK_LIMIT:
            raise ResourceLimitError(
                f"cocycle system: work |G|*dim = {n}*{self.dim} = {n * self.dim} "
                f"exceeds the cap of {SYSTEM_WORK_LIMIT}"
            )
        self.q = module.coeff_modulus
        self.cctx = module.coeff_ctx
        self.acts = module.action_table(group)
        # targets[slot][i] is the index of element i times generator slot.
        self.targets = group.edge_targets()
        self._L = {0: ([0] * self.dim, [0] * self.dim)}
        # The harvested consistency rows, filled by the rounds of constraint_basis.
        self.constraints: list[list[int]] = []
        self._b1: Optional[SubmoduleBasis] = None
        self._z1loc: Optional[SubmoduleBasis] = None

    def value_map(self, i: int) -> tuple[list[int], list[int]]:
        """L[i], the pair of rows with Z(element i) = L[i] u, built down the
        tree path from the nearest memoised ancestor."""
        memo, first, k = self._L, self.group._first, self.k
        path = []
        while i not in memo:
            path.append(i)
            i = first[i] // k
        l0, l1 = memo[i]
        q = self.q
        for y in reversed(path):
            parent, slot = divmod(first[y], k)
            a, b, c, d = self.acts[parent]
            j = 2 * slot
            l0, l1 = l0[:], l1[:]
            l0[j] = (l0[j] + a) % q
            l0[j + 1] = (l0[j + 1] + b) % q
            l1[j] = (l1[j] + c) % q
            l1[j + 1] = (l1[j + 1] + d) % q
            memo[y] = (l0, l1)
        return l0, l1

    def edge_rows(self, a: int, slot: int, t: int) -> tuple[list[int], list[int]]:
        """The consistency rows L[t] - (L[a] + act(a) E_slot) of the Cayley
        edge a -> t = a g_slot: zero on u exactly when the cocycle identity
        Z(t) = Z(a) + a.Z(g_slot) holds for the expansion of u."""
        (a0, a1), (t0, t1) = self.value_map(a), self.value_map(t)
        m0, m1, m2, m3 = self.acts[a]
        q = self.q
        r0 = [(x - y) % q for x, y in zip(t0, a0)]
        r1 = [(x - y) % q for x, y in zip(t1, a1)]
        j = 2 * slot
        r0[j] = (r0[j] - m0) % q
        r0[j + 1] = (r0[j + 1] - m1) % q
        r1[j] = (r1[j] - m2) % q
        r1[j + 1] = (r1[j + 1] - m3) % q
        return r0, r1

    # -- spaces ------------------------------------------------------------

    @cached_property
    def _harvest(self) -> tuple[list[list[int]], SubmoduleBasis]:
        """The Howell basis of the harvested rows and its kernel Z^1, by the
        rounds in the class docstring; the last round is Z^1's self-check."""
        dim, cctx, q = self.dim, self.cctx, self.q
        rows = self.constraints
        for s, tg in enumerate(self.targets):
            rows.extend(row for row in self.edge_rows(tg.index(0), s, 0) if any(row))
        b1 = self.b1()
        # B^1 and the vectors that walked clean, kept across rounds: each is
        # in Z^1, and so in every later K.
        spanned, passed = b1, list(b1.rows)
        for _ in range(cctx.n * dim + 1):
            basis = _howell_raw(rows, dim, cctx)
            kern = _kernel_raw(basis, dim, cctx)
            # The probe, the sum of K's rows, then K's rows, each walked
            # unless spanned already holds it.
            for u in [[sum(col) % q for col in zip(*kern)]] + kern if kern else []:
                if spanned.contains(u):
                    continue
                edge = _walk(self.acts, self.targets, q, u)[0]
                if edge is not None:
                    break
                passed.append(u)
                spanned = howell_from_rows(cctx, dim, passed)
            else:
                z1 = SubmoduleBasis.from_raw(cctx, dim, kern)
                if not all(z1.contains(r) for r in b1.rows):
                    raise ConsistencyError("coboundaries must be cocycles")
                return basis, z1
            pair = self.edge_rows(*edge)
            if not any(sum(x * y for x, y in zip(row, u)) % q for row in pair):
                raise ConsistencyError(f"the rows of the broken Cayley edge {edge} vanish on the cocycle candidate")
            rows.extend(row for row in pair if any(row))
        raise ConsistencyError(f"the cocycle harvest did not settle in {cctx.n * dim + 1} rounds")

    @property
    def constraint_basis(self) -> list[list[int]]:
        """Howell basis of the harvested constraints, shared by z1 and z1_local."""
        return self._harvest[0]

    def z1(self) -> SubmoduleBasis:
        return self._harvest[1]

    def b1(self) -> SubmoduleBasis:
        if self._b1 is None:
            # The coboundary of m = e_col has value (rho(g) - Id) e_col at g.
            rows = []
            q = self.q
            for col in range(2):
                row = []
                for g in self.gens:
                    a, b, c, d = self.acts[g]
                    if col == 0:
                        row.extend(((a - 1) % q, c % q))
                    else:
                        row.extend((b % q, (d - 1) % q))
                rows.append(row)
            self._b1 = howell_from_rows(self.cctx, self.dim, rows)
        return self._b1

    @cached_property
    def local_representatives(self) -> list[int]:
        """One generator of each conjugacy class of maximal cyclic subgroups.

        On a cocycle Z these local conditions imply Z(g) in Im(g - Id) at
        every element g.  If Z(g) = (g - 1)m, then Z(g^k) = (g^k - 1)m, so
        the condition holds on all of <g>; and for any h,
        Z(hgh^-1) = Z(h) + h Z(g) + hg Z(h^-1) = (hgh^-1 - 1)(h m - Z(h)),
        so it holds on every conjugate of <g>.  Every element lies in a
        maximal cyclic subgroup, so one generator per conjugacy class of
        those suffices.

        groups.cyclic_walk names each element's owner: the least generator
        of its cyclic subgroup when that subgroup is maximal, else 0.  The
        maximal subgroups are then merged under conjugation y -> h^-1 y h by
        each generator h, taken as the key product of h^-1, y and h: the
        generators generate the group, so the classes are the conjugacy
        classes.  The owner names the conjugate subgroup, and the least
        owner of each class is its representative.
        """
        group = self.group
        q, keys, index = group._q, group._keys, group._index
        conj = [(_inv4(keys[h], q), keys[h]) for h in self.gens]
        n = len(group)
        owner = cyclic_walk(group)[1]
        reps = []
        merged = bytearray(n)
        for x in range(1, n):
            if owner[x] != x or merged[x]:
                continue
            reps.append(x)
            merged[x] = 1
            stack = [x]
            while stack:
                y = keys[stack.pop()]
                for h_inv, h in conj:
                    z = owner[index[_mul4(_mul4(h_inv, y, q), h, q)]]
                    if not merged[z]:
                        merged[z] = 1
                        stack.append(z)
        return reps

    def local_constraint_rows(self) -> list[list[int]]:
        """k.L[g] u = 0 for every local representative g and annihilator
        row k of g - Id (L[g] is value_map(g)).  k.(g - Id) = 0 is
        (g - Id)^T k = 0, and since Z/p^n is self-injective, Z(g) lies in
        Im(g - Id) exactly when k.Z(g) = 0 for every such row."""
        rows: list[list[int]] = []
        q = self.q
        for g in self.local_representatives:
            a, b, c, d = self.acts[g]
            l0, l1 = self.value_map(g)
            for k0, k1 in _kernel_raw([[a - 1, c], [b, d - 1]], 2, self.cctx):
                rows.append([(k0 * x + k1 * y) % q for x, y in zip(l0, l1)])
        return rows

    def z1_local(self) -> SubmoduleBasis:
        if self._z1loc is None:
            rows = self.constraint_basis + self.local_constraint_rows()
            self._z1loc = kernel_basis(self.cctx, self.dim, rows)
            b1 = self.b1()
            if not all(self._z1loc.contains(r) for r in b1.rows):
                raise ConsistencyError("coboundaries satisfy the local conditions by definition")
        return self._z1loc

    # -- coordinates <-> tables --------------------------------------------

    def expand(self, coords: Sequence[int]) -> Cocycle:
        q = self.q
        u = [x % q for x in coords]
        vals: list[Optional[tuple[int, int]]] = [None] * len(self.group)
        vals[0] = (0, 0)
        first, k = self.group._first, self.k
        for child in range(1, len(vals)):
            parent, slot = divmod(first[child], k)
            a, b, c, d = self.acts[parent]
            g0, g1 = u[2 * slot], u[2 * slot + 1]
            v = vals[parent]
            vals[child] = ((v[0] + a * g0 + b * g1) % q, (v[1] + c * g0 + d * g1) % q)
        return Cocycle(self.group, self.module, tuple(vals))

    def compress(self, c: Cocycle) -> tuple[int, ...]:
        out = []
        for g in self.gens:
            out.extend(c.values[g])
        return tuple(out)

    def is_local_table(self, c: Cocycle) -> bool:
        """Direct test at every element, not only the representatives:
        each value lies in the image of g - Id, decided by the closed-form
        solve of (g - Id) x = value (zmod.solve2), not by the annihilator
        rows.  The x found is re-checked against (g - Id) x = value (a
        mismatch raises ConsistencyError)."""
        cctx = self.cctx
        for value, (a, b, cc, d) in zip(c.values, self.acts):
            if solve2(cctx, (a - 1, b, cc, d - 1), value) is None:
                return False
        return True

    # -- reports -----------------------------------------------------------

    def _report(self, big: SubmoduleBasis) -> H1Report:
        """big/B^1 as invariant factors plus the generator coordinates.

        big is Z^1 or Z^1_loc, and each generator is checked to lie in Z^1
        (ConsistencyError otherwise), so that its expansion is a cocycle.
        That is as strong as walking it: the harvest's last round proved
        Z^1 spanned by coboundaries and vectors that walked clean (see the
        class docstring), and the cocycle identity is linear in Z, so every
        combination of those expands to a cocycle.  Z^1_loc is in Z^1, as
        its rows include the harvested ones, so the check can only fail on
        a fault in quotient_structure.  Nothing is expanded here."""
        structure = quotient_structure(big, self.b1())
        orders = tuple(d for d, _ in structure)
        z1 = self.z1()
        if not all(z1.contains(vec) for _, vec in structure):
            raise ConsistencyError("quotient generator lies outside Z^1")
        return H1Report(
            group_label=self.group.label,
            module_label=self.module.label,
            order=math.prod(orders),
            invariant_factors=orders,
            generators=tuple(vec for _, vec in structure),
            witness=None,
        )

    def h1(self) -> H1Report:
        """H^1(G, M) as invariant factors plus generator coordinates."""
        return self._report(self.z1())

    def h1_loc(self) -> H1Report:
        """The first local cohomology group: local cocycles modulo coboundaries.

        The main path imposes the local conditions as annihilator rows, Z(g) in
        Im(g - Id) iff every row that kills Im(g - Id) kills Z(g), at one
        generator g of each conjugacy class of maximal cyclic subgroups (see
        local_representatives).  A non-trivial answer carries its first
        generator as the witness, tested local at every element and not a
        coboundary.  When the work fits CLASS_ENUM_WORK_LIMIT, the answer M is
        checked against S, the classes local at every element, each tested
        against the column span of g - Id (is_local_table); S is a subgroup of
        H^1, since each Im(g - Id) is a submodule.  (a) Every generator of M is
        local, so M is in S; the first is the witness, already tested.  (b) No
        line of the socle of H^1/M is local: S/M is a subgroup of the p-group
        H^1/M, so were it nonzero it would meet the socle, and a unit multiple
        of a class is local exactly when the class is.  With (d_i, y_i) the
        cyclic decomposition of Z^1/Z^1_loc, the lines are sum_i c_i (d_i/p) y_i
        with first nonzero c_i = 1, (p^r - 1)/(p - 1) of them for r factors.  A
        failure of (a) or (b) raises ConsistencyError.  report.cross_check
        records whether this ran, with its size, or why it was skipped.
        """
        report = self._report(self.z1_local())
        gens = report.generators
        if gens:
            witness = self.expand(gens[0])
            if not self.is_local_table(witness):
                raise ConsistencyError("local cohomology witness fails the local conditions")
            if is_coboundary(witness) is not None:
                raise ConsistencyError("local cohomology witness is a coboundary")
            report = report._replace(witness=witness)
        p, q, n = self.group.ctx.p, self.q, len(self.group)
        socle = [[d // p * x % q for x in y] for d, y in quotient_structure(self.z1(), self.z1_local())]
        lines = (p ** len(socle) - 1) // (p - 1)
        work = (len(gens) + lines) * n
        if work > CLASS_ENUM_WORK_LIMIT:
            return report._replace(cross_check=f"skipped: work {work} > cap {CLASS_ENUM_WORK_LIMIT}")
        if not all(self.is_local_table(self.expand(vec)) for vec in gens[1:]):
            raise ConsistencyError("a generator of the local cohomology fails the local conditions")
        for i, lead in enumerate(socle):
            for tail in itertools.product(range(p), repeat=len(socle) - i - 1):
                vec = lead
                for c, row in zip(tail, socle[i + 1:]):
                    vec = [(v + c * x) % q for v, x in zip(vec, row)]
                if self.is_local_table(self.expand(vec)):
                    raise ConsistencyError("a class outside the computed local cohomology is local at every element")
        note = f"ran: {len(gens)} generators + {lines} socle lines x {n} elements"
        return report._replace(cross_check=note)


class H1Report(NamedTuple):
    """Order and invariant factors of H^1 or its local subgroup, and the
    generators of its cyclic factors as coordinate vectors in the
    generator-coordinate space of the CocycleSystem that computed it
    (CocycleSystem.expand gives a generator's value table); for a
    non-trivial local computation the witness is a concrete local cocycle,
    expanded, that is not a coboundary.  cross_check says whether h1_loc's
    cross-check on generators and socle lines ran, with its size, or why
    it was skipped (None for H^1); it stays out of to_json."""

    group_label: Optional[str]
    module_label: str
    order: int
    invariant_factors: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    witness: Optional[Cocycle]
    cross_check: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "group_label": self.group_label,
            "module": self.module_label,
            "order": self.order,
            "invariant_factors": list(self.invariant_factors),
            "witness": self.witness.value_table() if self.witness is not None else None,
        }


def h1(group: FiniteMatrixGroup, module: GModule) -> H1Report:
    """H^1(G, M); see CocycleSystem.h1."""
    return CocycleSystem(group, module).h1()


def h1_loc(group: FiniteMatrixGroup, module: GModule) -> H1Report:
    """The first local cohomology group; see CocycleSystem.h1_loc."""
    return CocycleSystem(group, module).h1_loc()


def is_coboundary(c: Cocycle) -> Optional[tuple[int, int]]:
    """A module element m with c(g) = (g - 1) m for all g of c's group, as
    a pair of coordinates in c's module, or None.

    A x = b stacks (g - Id) x = c(g) over the generators.  Z/p^n is local,
    so b lies in Im A exactly when some row (x_0, x_1, t) of the kernel
    of [A | -b] has a unit t, and then m = t^-1 (x_0, x_1).  The candidate
    is re-checked against every element.
    """
    group, module = c.group, c.module
    gens = group.generators
    cctx = module.coeff_ctx
    q = module.coeff_modulus
    if not gens:
        return 0, 0
    acts = module.action_table(group)
    rows = []
    for g in gens:
        a, b, cc, d = acts[g]
        v0, v1 = c.values[g]
        rows.append([a - 1, b, -v0])
        rows.append([cc, d - 1, -v1])
    for x0, x1, t in _kernel_raw(rows, 3, cctx):
        if t % cctx.p:
            ti = cctx.unit_inverse(t)
            m0, m1 = x0 * ti % q, x1 * ti % q
            break
    else:
        return None
    for (a, b, cc, d), value in zip(acts, c.values):
        if (((a - 1) * m0 + b * m1) % q, (cc * m0 + (d - 1) * m1) % q) != value:
            return None
    return m0, m1
