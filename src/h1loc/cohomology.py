"""First cohomology of finite matrix groups acting on (Z/p^n)^2.

Computes the cocycle space Z^1, the coboundary space B^1, H^1 = Z^1/B^1,
the subspace of cocycles that are locally coboundaries at every group
element, and the resulting first local cohomology group, together with
restriction, inflation and equivariant-homomorphism utilities.

A cocycle is a map Z from the group to the module with
Z(ab) = Z(a) + a.Z(b); it is determined by its values on a generating
set.  The engine therefore works in the coordinate space of generator
values: a breadth-first walk of the Cayley graph expresses every
element's value as a linear function of the generator values, each
revisited element contributes a linear consistency constraint, and Z^1
is the kernel of the stacked constraints.  Local conditions add the
linear equations that pin Z(g) inside the image of g - Id, for one
generator g of each conjugacy class of maximal cyclic subgroups; on a
cocycle they imply the condition at every group element (see
CocycleSystem.local_representatives).

Works uniformly for an enumerated matrix group and for a quotient by a
normal subgroup acting trivially on the module, so inflation has a
domain to live on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import ConsistencyError, ContractError, DimensionError, InputError, ResourceLimitError
from .groups import (
    FiniteMatrixGroup,
    QuotientGroup,
    _powers4,
    subgroup_from_indices,
)
from .zmod import (
    ModMatrix,
    ModulusContext,
    ModVector,
    SubmoduleBasis,
    _howell_raw,
    _kernel_raw,
    column_span2,
    howell_from_rows,
    solve2,
    solve_linear,
)

GroupLike = Union[FiniteMatrixGroup, QuotientGroup]

FULL = "full"
TORSION = "p_torsion"
QUOTIENT = "mod_p_quotient"

_MODULE_LABELS = {FULL: "V", TORSION: "V[p]", QUOTIENT: "V/V[p]"}

# Caps for the enumeration-based cross check of the local cohomology order.
CLASS_ENUM_LIMIT = 10**5
CLASS_ENUM_WORK_LIMIT = 2 * 10**6
# Cap on |G| * dim, checked before a CocycleSystem allocates anything per
# element: its table L holds 2 * dim entries per element, and its harvest
# walks |G| * dim / 2 Cayley edges.
SYSTEM_WORK_LIMIT = 2 * 10**5


@dataclass(frozen=True)
class GModule:
    """One of the three coefficient modules: V, its p-torsion, or V/V[p].

    V = (Z/p^n)^2 with the natural matrix action.  The p-torsion V[p] and
    the quotient V/V[p] are carried in their own coordinates (over Z/p and
    Z/p^(n-1)), with the action given by reducing the acting matrix.
    """

    ctx: ModulusContext
    kind: str

    def __post_init__(self):
        if self.kind not in _MODULE_LABELS:
            raise InputError(f"unknown module kind {self.kind!r}")
        if self.kind == QUOTIENT and self.ctx.n < 2:
            raise InputError("V/V[p] is trivial for n = 1; refusing to build it")

    @property
    def label(self) -> str:
        return _MODULE_LABELS[self.kind]

    @property
    def coeff_ctx(self) -> ModulusContext:
        if self.kind == FULL:
            return self.ctx
        if self.kind == TORSION:
            return ModulusContext(self.ctx.p, 1)
        return ModulusContext(self.ctx.p, self.ctx.n - 1)

    @property
    def coeff_modulus(self) -> int:
        return self.coeff_ctx.modulus

    @property
    def size(self) -> int:
        return self.coeff_modulus**2

    def action_entries(self, key: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
        """The action of the group element with this key on the module."""
        q = self.coeff_modulus
        a, b, c, d = key
        return (a % q, b % q, c % q, d % q)

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


# ---------------------------------------------------------------------------
# Group adapters.


def _gen_indices(group: GroupLike) -> list[int]:
    if isinstance(group, FiniteMatrixGroup):
        return group.distinct_generator_indices()
    return group.generator_cosets()


def _element_keys(group: GroupLike) -> Sequence[tuple]:
    """The key of every element; of each coset's representative for a quotient."""
    if isinstance(group, FiniteMatrixGroup):
        return group._keys
    keys = group.parent._keys
    return [keys[r] for r in group.reps]


def _check_action_well_defined(group: GroupLike, module: GModule):
    if isinstance(group, QuotientGroup):
        q = module.coeff_modulus
        ident = (1 % q, 0, 0, 1 % q)
        keys = group.parent._keys
        for s in sorted(group.normal_indices):
            if module.action_entries(keys[s]) != ident:
                raise InputError(
                    "the normal subgroup does not act trivially on the module; "
                    "the quotient action is not defined"
                )


@dataclass(frozen=True)
class Cocycle:
    """A cocycle as its full value table, one module vector per element."""

    group: GroupLike
    module: GModule
    values: tuple[tuple[int, int], ...]

    def value(self, i: int) -> tuple[int, int]:
        return self.values[i]

    def __add__(self, other: "Cocycle") -> "Cocycle":
        self._align(other)
        q = self.module.coeff_modulus
        vals = tuple(
            ((a0 + b0) % q, (a1 + b1) % q) for (a0, a1), (b0, b1) in zip(self.values, other.values)
        )
        return Cocycle(self.group, self.module, vals)

    def __sub__(self, other: "Cocycle") -> "Cocycle":
        self._align(other)
        q = self.module.coeff_modulus
        vals = tuple(
            ((a0 - b0) % q, (a1 - b1) % q) for (a0, a1), (b0, b1) in zip(self.values, other.values)
        )
        return Cocycle(self.group, self.module, vals)

    def scale(self, c: int) -> "Cocycle":
        q = self.module.coeff_modulus
        return Cocycle(self.group, self.module, tuple(((c * a) % q, (c * b) % q) for a, b in self.values))

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

    def _align(self, other: "Cocycle"):
        if self.group is not other.group or self.module != other.module:
            raise DimensionError("cocycles live on different groups or modules")


def verify_cocycle(c: Cocycle, full: bool = False) -> bool:
    """Check the defining identity Z(ab) = Z(a) + a.Z(b).

    The default checks Z(1) = 0 and every Cayley edge (a, g), g a listed
    generator, at every group size.  That implies the identity for all
    pairs, by induction on the length of b as a word in the generators: the
    base case Z(a.1) = Z(a) + a.Z(1) is Z(1) = 0, and from the edge (ab, g)
    and the pair (a, b) follows Z(abg) = Z(ab) + ab.Z(g) = Z(a) + a.Z(bg).
    Positive words reach every element of a finite group once the
    generators generate it, which close_group guarantees for an enumerated
    group and QuotientGroup.generator_cosets (the images of the parent's
    generators) for a quotient.

    full=True checks every pair (a, b) outright, for hand-written class
    tables and as the test oracle of the per-edge check.
    """
    group, module = c.group, c.module
    _check_action_well_defined(group, module)
    n = len(group)
    acts = [module.action_entries(k) for k in _element_keys(group)]
    if full:
        mult = group.mult
        edges = ((b, [mult(a, b) for a in range(n)]) for b in range(n))
    else:
        edges = zip(_gen_indices(group), group.edge_targets())
    return _cocycle_holds(acts, edges, c.values, module.coeff_modulus)


def _cocycle_holds(acts, edges, values, q: int) -> bool:
    """Z(1) = 0 and Z(ab) = Z(a) + a.Z(b) for every element a and every
    (b, targets) in edges, where targets[a] is the index of ab and acts[a]
    is the action of a on the module."""
    if values[0] != (0, 0):
        return False
    for b, targets in edges:
        vb0, vb1 = values[b]
        for (m0, m1, m2, m3), (va0, va1), t in zip(acts, values, targets):
            w0, w1 = values[t]
            if w0 != (va0 + m0 * vb0 + m1 * vb1) % q or w1 != (va1 + m2 * vb0 + m3 * vb1) % q:
                return False
    return True


# ---------------------------------------------------------------------------
# The generator-coordinate system.


class LocalEntry:
    """The local condition Z(g) in Im(g - Id) for one action of g, in the
    two forms the engine uses; each is computed on first use.

    annihilator: rows k with k.(g - Id) = 0; since Z/p^n is self-injective,
    Z(g) lies in the image exactly when k.Z(g) = 0 for every row.
    span: the closed-form column-span basis of g - Id (zmod.column_span2),
    which decides membership directly (admits).
    """

    def __init__(self, shifted: ModMatrix):
        self.shifted = shifted  # g - Id, acting on the module's coordinates

    @cached_property
    def annihilator(self) -> list[list[int]]:
        # k.(g - Id) = 0 is (g - Id)^T k = 0.
        columns = self.shifted.transpose()
        return _kernel_raw(columns.row_lists(), 2, columns.ctx)

    @cached_property
    def span(self) -> list:
        return column_span2(self.shifted)

    def admits(self, value: tuple[int, int]) -> bool:
        """Whether the reduced pair value lies in Im(g - Id): it is reduced
        against the column-span basis, and a solution found is re-checked
        against (g - Id) x = value (zmod.solve2; a mismatch raises
        ConsistencyError)."""
        return solve2(self.shifted, self.span, value) is not None


class CocycleSystem:
    """Shared scaffolding for one (group, module) pair.

    Holds the breadth-first expression of every element's cocycle value as
    a linear map from generator values, the harvested consistency
    constraints, and lazily computed bases of Z^1, B^1 and the local
    cocycle space, all in the generator coordinate space (Z/q)^(2k).
    Raises ResourceLimitError before any per-element table is built when
    |G| * dim passes SYSTEM_WORK_LIMIT.
    """

    def __init__(self, group: GroupLike, module: GModule):
        if group.ctx != module.ctx:
            raise DimensionError("module coefficients do not match the group ring")
        _check_action_well_defined(group, module)
        self.group = group
        self.module = module
        self.gens = _gen_indices(group)
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
        self.acts = [module.action_entries(k) for k in _element_keys(group)]
        # targets[slot][i] is the index of element i times generator slot.
        self.targets = group.edge_targets()
        # L[i] is a 2 x dim matrix (pair of rows) with Z(element i) = L[i] u.
        self.L: list[Optional[tuple[list[int], list[int]]]] = [None] * n
        self.L[0] = ([0] * self.dim, [0] * self.dim)
        self.bfs_order = [0]
        self.bfs_edges: list[tuple[int, int, int]] = []  # (parent, gen slot, child)
        constraints: list[list[int]] = []
        q = self.q
        head = 0
        while head < len(self.bfs_order):
            x = self.bfs_order[head]
            head += 1
            lx = self.L[x]
            a, b, c, d = self.acts[x]
            for slot, tg in enumerate(self.targets):
                y = tg[x]
                r0 = lx[0][:]
                r1 = lx[1][:]
                j0, j1 = 2 * slot, 2 * slot + 1
                r0[j0] = (r0[j0] + a) % q
                r0[j1] = (r0[j1] + b) % q
                r1[j0] = (r1[j0] + c) % q
                r1[j1] = (r1[j1] + d) % q
                if self.L[y] is None:
                    self.L[y] = (r0, r1)
                    self.bfs_order.append(y)
                    self.bfs_edges.append((x, slot, y))
                else:
                    ly = self.L[y]
                    c0 = [(u - v) % q for u, v in zip(ly[0], r0)]
                    c1 = [(u - v) % q for u, v in zip(ly[1], r1)]
                    if any(c0):
                        constraints.append(c0)
                    if any(c1):
                        constraints.append(c1)
        if head != n:
            raise ContractError("the listed generators do not generate the group")
        self.constraints = constraints
        self._z1: Optional[SubmoduleBasis] = None
        self._b1: Optional[SubmoduleBasis] = None
        self._z1loc: Optional[SubmoduleBasis] = None
        self._local: Optional[list[LocalEntry]] = None

    # -- spaces ------------------------------------------------------------

    @cached_property
    def constraint_basis(self) -> list[list[int]]:
        """Howell basis of the harvested constraints, shared by z1 and z1_local."""
        return _howell_raw(self.constraints, self.dim, self.cctx)

    def z1(self) -> SubmoduleBasis:
        if self._z1 is None:
            rows = _kernel_raw(self.constraint_basis, self.dim, self.cctx) if self.dim else []
            self._z1 = SubmoduleBasis.from_raw(self.cctx, self.dim, rows)
            for r in self._z1.rows:
                if not self.is_cocycle(self.expand(r.coords)):
                    raise ConsistencyError("computed cocycle basis fails the cocycle identity")
        return self._z1

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
            z1 = self.z1()
            if not all(z1.contains(r) for r in self._b1.rows):
                raise ConsistencyError("coboundaries must be cocycles")
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

        Each cyclic subgroup is walked once, from its first generator in
        index order (its owner); the walk marks the subgroup's other
        elements either as generators with the same owner or as lying in
        a larger cyclic subgroup.  The maximal subgroups are then merged
        under conjugation by the inverses of the generators of the group,
        read off the Cayley edges: for the edge targets T of a generator h,
        inv(T[inv(T[y])]) = h^-1 y h.  Those inverses generate the same
        group, so the classes are the same; the owner names the conjugate
        subgroup, and the least owner of each class is its representative.
        """
        group = self.group
        mult, inv = group.mult, group.inv
        n = len(group)
        owner = [-1] * n  # -1 unvisited, 0 in a larger cyclic subgroup
        owner[0] = 0
        for x in range(1, n):
            if owner[x] != -1:
                continue
            powers = [x]
            cur = mult(x, x)
            while cur != 0:
                powers.append(cur)
                cur = mult(cur, x)
            k = len(powers) + 1
            for j, y in enumerate(powers, 1):
                owner[y] = x if math.gcd(j, k) == 1 else 0
        reps = []
        merged = bytearray(n)
        for x in range(1, n):
            if owner[x] != x or merged[x]:
                continue
            reps.append(x)
            merged[x] = 1
            stack = [x]
            while stack:
                y = stack.pop()
                for t in self.targets:
                    z = owner[inv(t[inv(t[y])])]
                    if not merged[z]:
                        merged[z] = 1
                        stack.append(z)
        return reps

    def local_entries(self) -> list[LocalEntry]:
        """The local entry of every element; elements whose actions on the
        module coincide (common for V[p] and V/V[p]) share one entry."""
        if self._local is None:
            q = self.q
            by_action: dict[tuple[int, int, int, int], LocalEntry] = {}
            for act in self.acts:
                if act not in by_action:
                    a, b, c, d = act
                    shifted = ModMatrix(self.cctx, 2, 2, ((a - 1) % q, b % q, c % q, (d - 1) % q))
                    by_action[act] = LocalEntry(shifted)
            self._local = [by_action[act] for act in self.acts]
        return self._local

    def local_constraint_rows(self) -> list[list[int]]:
        """k.L[g] u = 0 for every local representative g and annihilator
        row k of g."""
        rows: list[list[int]] = []
        q = self.q
        entries = self.local_entries()
        for g in self.local_representatives:
            l0, l1 = self.L[g]
            for k0, k1 in entries[g].annihilator:
                rows.append([(k0 * x + k1 * y) % q for x, y in zip(l0, l1)])
        return rows

    def z1_local(self) -> SubmoduleBasis:
        if self._z1loc is None:
            rows = self.constraint_basis + self.local_constraint_rows()
            kern = _kernel_raw(rows, self.dim, self.cctx) if self.dim else []
            self._z1loc = SubmoduleBasis.from_raw(self.cctx, self.dim, kern)
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
        for parent, slot, child in self.bfs_edges:
            a, b, c, d = self.acts[parent]
            g0, g1 = u[2 * slot], u[2 * slot + 1]
            v = vals[parent]
            vals[child] = ((v[0] + a * g0 + b * g1) % q, (v[1] + c * g0 + d * g1) % q)
        return Cocycle(self.group, self.module, tuple(vals))

    def is_cocycle(self, c: Cocycle) -> bool:
        """verify_cocycle(c) on the system's own action table and generators."""
        return _cocycle_holds(self.acts, zip(self.gens, self.targets), c.values, self.q)

    def compress(self, c: Cocycle) -> tuple[int, ...]:
        out = []
        for g in self.gens:
            out.extend(c.values[g])
        return tuple(out)

    def class_form(self, c: Cocycle) -> tuple[int, ...]:
        """Canonical coordinates of the class of c modulo coboundaries."""
        u = ModVector(self.cctx, self.compress(c))
        return self.b1().reduce(u).coords

    def is_local_table(self, c: Cocycle) -> bool:
        """Direct test at every element, not only the representatives:
        each value lies in the image of g - Id, decided by the column span
        of g - Id (LocalEntry.admits), not by the annihilator rows."""
        return all(entry.admits(value) for value, entry in zip(c.values, self.local_entries()))


@dataclass(frozen=True)
class H1Report:
    """Order, invariant factors and generating cocycles of H^1 or its local
    subgroup; for a non-trivial local computation the witness is a concrete
    local cocycle that is not a coboundary.  cross_check says whether
    h1_loc's class-enumeration cross-check ran, with its size, or why it
    was skipped (None for H^1); it stays out of to_json."""

    group_label: Optional[str]
    module_label: str
    order: int
    invariant_factors: tuple[int, ...]
    generator_cocycles: tuple[Cocycle, ...]
    zero_cocycle: Cocycle
    witness: Optional[Cocycle]
    cross_check: Optional[str] = None

    def classes(self) -> list[Cocycle]:
        """One representative per class, the zero class first."""
        reps = []
        ranges = [range(d) for d in self.invariant_factors]
        for combo in itertools.product(*ranges):
            c = self.zero_cocycle
            for coeff, gen in zip(combo, self.generator_cocycles):
                if coeff:
                    c = c + gen.scale(coeff)
            reps.append(c)
        return reps

    def to_json(self) -> dict:
        return {
            "group_label": self.group_label,
            "module": self.module_label,
            "order": self.order,
            "invariant_factors": list(self.invariant_factors),
            "witness": self.witness.value_table() if self.witness is not None else None,
        }


def _group_label(group: GroupLike) -> Optional[str]:
    if isinstance(group, FiniteMatrixGroup):
        return group.label
    lbl = group.parent.label
    return f"{lbl}/kernel" if lbl else None


def _quotient_report(system: CocycleSystem, big: SubmoduleBasis, witness_wanted: bool) -> H1Report:
    from .zmod import quotient_structure

    structure = quotient_structure(big, system.b1())
    order = 1
    for d, _ in structure:
        order *= d
    gens = tuple(system.expand(vec.coords) for _, vec in structure)
    for c in gens:
        if not system.is_cocycle(c):
            raise ConsistencyError("quotient generator fails the cocycle identity")
    orders = tuple(d for d, _ in structure)
    witness = None
    if witness_wanted and order > 1:
        witness = gens[0]
        if not system.is_local_table(witness):
            raise ConsistencyError("local cohomology witness fails the local conditions")
        if is_coboundary(system.group, system.module, witness) is not None:
            raise ConsistencyError("local cohomology witness is a coboundary")
    return H1Report(
        group_label=_group_label(system.group),
        module_label=system.module.label,
        order=order,
        invariant_factors=orders,
        generator_cocycles=gens,
        zero_cocycle=system.expand([0] * system.dim),
        witness=witness,
    )


def h1(group: GroupLike, module: GModule) -> H1Report:
    """H^1(G, M) as invariant factors plus generating cocycles."""
    system = CocycleSystem(group, module)
    return _quotient_report(system, system.z1(), witness_wanted=False)


def h1_loc(group: GroupLike, module: GModule, cross_check: bool = True) -> H1Report:
    """The first local cohomology group: local cocycles modulo coboundaries.

    The main path imposes the local conditions as annihilator rows, Z(g) in
    Im(g - Id) iff every row that kills Im(g - Id) kills Z(g), at one
    generator g of each conjugacy class of maximal cyclic subgroups (see
    CocycleSystem.local_representatives).  When feasible the order is
    recomputed a second way, by enumerating the classes of H^1 and testing
    a representative of each at every element against the column span of
    g - Id; a mismatch raises ConsistencyError.  The zero class is local
    (0 = (g - 1)0) and is counted without a test.  report.cross_check
    records whether this ran.
    """
    system = CocycleSystem(group, module)
    report = _quotient_report(system, system.z1_local(), witness_wanted=True)
    if not cross_check:
        return replace(report, cross_check="skipped: not requested")
    full = _quotient_report(system, system.z1(), witness_wanted=False)
    work = full.order * len(group)
    if full.order > CLASS_ENUM_LIMIT:
        note = f"skipped: {full.order} classes > cap {CLASS_ENUM_LIMIT}"
    elif work > CLASS_ENUM_WORK_LIMIT:
        note = f"skipped: work {work} > cap {CLASS_ENUM_WORK_LIMIT}"
    else:
        classes = full.classes()
        count = 1 + sum(1 for rep in classes[1:] if system.is_local_table(rep))
        if count != report.order:
            raise ConsistencyError(
                f"local class count {count} disagrees with the computed order {report.order}"
            )
        note = f"ran: {full.order} classes x {len(group)} elements"
    return replace(report, cross_check=note)


def is_coboundary(group: GroupLike, module: GModule, c: Cocycle) -> Optional[ModVector]:
    """A module element m with c(g) = (g - 1) m for all g, or None.

    One linear solve over the generator stack decides it; the candidate is
    then re-checked against every element.
    """
    if c.group is not group:
        raise ContractError("cocycle does not live on the given group")
    _check_action_well_defined(group, module)
    gens = _gen_indices(group)
    cctx = module.coeff_ctx
    q = module.coeff_modulus
    if not gens:
        return ModVector(cctx, (0, 0))
    keys = _element_keys(group)
    rows = []
    rhs = []
    for g in gens:
        a, b, cc, d = module.action_entries(keys[g])
        rows.append([(a - 1) % q, b % q])
        rows.append([cc % q, (d - 1) % q])
        rhs.extend(c.values[g])
    sol = solve_linear(ModMatrix.from_rows(cctx, rows), ModVector(cctx, tuple(rhs)))
    if not sol.solvable:
        return None
    m = sol.solution
    for key, value in zip(keys, c.values):
        a, b, cc, d = module.action_entries(key)
        got = (((a - 1) * m.coords[0] + b * m.coords[1]) % q, (cc * m.coords[0] + (d - 1) * m.coords[1]) % q)
        if got != value:
            return None
    return m


def restrict_cocycle(c: Cocycle, sub: FiniteMatrixGroup) -> Cocycle:
    """Restriction along a subgroup whose elements all lie in c's group."""
    parent = c.group
    if not isinstance(parent, FiniteMatrixGroup) or not isinstance(sub, FiniteMatrixGroup):
        raise ContractError("restriction works between enumerated matrix groups")
    if sub.ctx != parent.ctx:
        raise DimensionError("subgroup has a different coefficient ring")
    module = GModule(sub.ctx, c.module.kind)
    if not all(k in parent._index for k in sub._keys):
        raise InputError("the subgroup has an element outside the cocycle's group")
    vals = tuple(c.values[parent._index[k]] for k in sub._keys)
    return Cocycle(sub, module, vals)


def inflate_cocycle(quotient: QuotientGroup, c: Cocycle) -> Cocycle:
    """Pull a cocycle on G/H back to G along the projection.

    Requires the values to be fixed by the normal subgroup (they are the
    values of the inflated cocycle on whole cosets).  The result is
    re-verified against the cocycle identity.
    """
    if c.group is not quotient:
        raise ContractError("cocycle does not live on the given quotient")
    parent = quotient.parent
    module = GModule(parent.ctx, c.module.kind)
    q = module.coeff_modulus
    for s in sorted(quotient.normal_indices):
        a, b, cc, d = module.action_entries(parent._keys[s])
        for v0, v1 in set(c.values):
            if ((a * v0 + b * v1) % q, (cc * v0 + d * v1) % q) != (v0, v1):
                raise ContractError("cocycle values are not fixed by the normal subgroup")
    vals = tuple(c.values[quotient.coset_of(i)] for i in range(len(parent)))
    out = Cocycle(parent, module, vals)
    if not verify_cocycle(out):
        raise ContractError("inflated table fails the cocycle identity")
    return out


# ---------------------------------------------------------------------------
# Equivariant homomorphisms Hom_{F_p[G/H]}(H, V[p]).


@dataclass(frozen=True)
class HomSpace:
    """All F_p[G/H]-module maps from an elementary abelian normal subgroup
    into the p-torsion of V, as matrices against a fixed basis of H."""

    group: FiniteMatrixGroup
    subgroup_indices: tuple[int, ...]
    h_basis: tuple[int, ...]
    coordinates: dict
    basis_matrices: tuple[ModMatrix, ...]
    injective_exists: bool

    @property
    def dimension(self) -> int:
        return len(self.basis_matrices)

    def enumerate_maps(self):
        """Every hom in the space, as a matrix (columns follow h_basis)."""
        p = self.group.ctx.p
        ctx_p = ModulusContext(p, 1)
        dh = len(self.h_basis)
        for combo in itertools.product(range(p), repeat=self.dimension):
            acc = [[0] * dh, [0] * dh]
            for c, m in zip(combo, self.basis_matrices):
                if c:
                    for r in range(2):
                        for j in range(dh):
                            acc[r][j] = (acc[r][j] + c * m.entry(r, j)) % p
            yield ModMatrix.from_rows(ctx_p, acc)

    def map_values(self, phi: ModMatrix) -> dict:
        """The value of the hom phi on every subgroup element."""
        p = self.group.ctx.p
        out = {}
        for idx in self.subgroup_indices:
            coords = self.coordinates[idx]
            v0 = sum(phi.entry(0, j) * coords[j] for j in range(len(coords))) % p
            v1 = sum(phi.entry(1, j) * coords[j] for j in range(len(coords))) % p
            out[idx] = (v0, v1)
        return out


def _is_injective_mod_p(phi: ModMatrix) -> bool:
    cols = phi.transpose().row_lists()
    return len(_howell_raw(cols, phi.rows, phi.ctx)) == phi.cols


def equivariant_homs(g: FiniteMatrixGroup, subgroup_indices, target: Optional[GModule] = None) -> HomSpace:
    """Hom_{F_p[G/H]}(H, V[p]) for an elementary abelian normal H.

    H is written additively through a greedy F_p-basis; the quotient acts
    on H by conjugation and on V[p] by the reduced matrices.  Equivariance
    only needs to be imposed for the generators of g.
    """
    module = target if target is not None else torsion_module(g.ctx)
    if module.kind != TORSION:
        raise InputError("the hom space targets the p-torsion module")
    p = g.ctx.p
    ctx_p = ModulusContext(p, 1)
    sub = tuple(sorted(frozenset(subgroup_indices)))
    sub_gens = g.subgroup_generators(sub)
    if sub_gens is None:
        raise ContractError("subgroup indices are not closed")
    # A group is abelian exactly when its generators commute pairwise.
    for a, b in itertools.combinations(sub_gens, 2):
        if g.mult(a, b) != g.mult(b, a):
            raise InputError("subgroup is not abelian")
    for a in sub:
        if a != 0 and len(_powers4(g._keys[a], g._q)) != p:
            raise InputError("subgroup is not elementary abelian of exponent p")
    # Greedy basis in index order, then coordinates by full enumeration.
    basis: list[int] = []
    span = {0: ()}
    for idx in sub:
        if idx not in span:
            basis.append(idx)
            span = {}
            for combo in itertools.product(range(p), repeat=len(basis)):
                cur = 0
                for c, b in zip(combo, basis):
                    for _ in range(c):
                        cur = g.mult(cur, b)
                span[cur] = combo
    if len(span) != len(sub):
        raise InputError("subgroup enumeration and basis span disagree")
    dh = len(basis)
    # Conjugation matrices on H and reduced action on V[p] per generator.
    gens = g.distinct_generator_indices()
    conj = []
    acts = []
    for gi in gens:
        gj = g.inv(gi)
        cols = []
        for b in basis:
            im = g.mult(g.mult(gi, b), gj)
            if im not in span:
                raise ContractError("subgroup is not normalized by the generators")
            cols.append(span[im])
        conj.append(cols)  # cols[j] = coordinates of g b_j g^-1
        acts.append(module.action_entries(g._keys[gi]))
    # Unknowns: phi[r][j], r in {0,1}, j < dh; equations per generator:
    # sum_j phi[r][j] conj[j][-> coords] = act rows applied to phi columns.
    rows = []
    nvars = 2 * dh
    for cols, (a, b, c, d) in zip(conj, acts):
        for r in range(2):
            for j in range(dh):
                row = [0] * nvars
                for t in range(dh):
                    row[r * dh + t] = (row[r * dh + t] + cols[j][t]) % p
                if r == 0:
                    row[j] = (row[j] - a) % p
                    row[dh + j] = (row[dh + j] - b) % p
                else:
                    row[j] = (row[j] - c) % p
                    row[dh + j] = (row[dh + j] - d) % p
                rows.append(row)
    kern = _kernel_raw(rows, nvars, ctx_p) if nvars else []
    mats = tuple(
        ModMatrix.from_rows(ctx_p, [vec[:dh], vec[dh:]]) for vec in kern
    )
    space = HomSpace(
        group=g,
        subgroup_indices=sub,
        h_basis=tuple(basis),
        coordinates={idx: span[idx] for idx in sub},
        basis_matrices=mats,
        injective_exists=False,
    )
    injective = False
    if dh <= 2 and mats:
        injective = any(_is_injective_mod_p(phi) for phi in space.enumerate_maps())
    return replace(space, injective_exists=injective)


# ---------------------------------------------------------------------------
# Inflation-restriction bookkeeping.


@dataclass(frozen=True)
class InflationRestrictionReport:
    h1_group_order: int
    h1_quotient_order: int
    hom_space_order: int
    kernel_of_restriction: frozenset
    image_of_inflation: frozenset
    exact: bool
    restriction_injective: bool
    restriction_bijective_onto_invariants: bool


def inflation_restriction_check(g: FiniteMatrixGroup, module: Optional[GModule] = None) -> InflationRestrictionReport:
    """Exactness of inflation then restriction at H^1(G, V[p]).

    Uses the reduction kernel H: computes ker(res: H^1(G) -> H^1(H)) and
    im(inf: H^1(G/H) -> H^1(G)) class by class and compares them, and also
    checks whether restriction lands bijectively on the G/H-equivariant
    homomorphisms from H (which carries the invariants of H^1(H, V[p])).
    """
    from .groups import quotient_group, reduction_kernel

    module = module if module is not None else torsion_module(g.ctx)
    h_idx = reduction_kernel(g)
    quo = quotient_group(g, h_idx)
    hsub = subgroup_from_indices(g, h_idx, label="reduction-kernel")
    system = CocycleSystem(g, module)
    rep_g = _quotient_report(system, system.z1(), witness_wanted=False)
    if rep_g.order > CLASS_ENUM_LIMIT:
        raise ResourceLimitError(f"H^1 of order {rep_g.order} is too large to enumerate classes")
    rep_q = h1(quo, GModule(quo.parent.ctx, module.kind))
    zero_form = system.class_form(system.expand([0] * system.dim))
    ker_res = set()
    for rep in rep_g.classes():
        restricted = restrict_cocycle(rep, hsub)
        if is_coboundary(hsub, GModule(hsub.ctx, module.kind), restricted) is not None:
            ker_res.add(system.class_form(rep))
    im_inf = set()
    for rep in rep_q.classes():
        inflated = inflate_cocycle(quo, rep)
        im_inf.add(system.class_form(inflated))
    hom = equivariant_homs(g, h_idx, torsion_module(g.ctx))
    hom_order = g.ctx.p**hom.dimension
    return InflationRestrictionReport(
        h1_group_order=rep_g.order,
        h1_quotient_order=rep_q.order,
        hom_space_order=hom_order,
        kernel_of_restriction=frozenset(ker_res),
        image_of_inflation=frozenset(im_inf),
        exact=frozenset(ker_res) == frozenset(im_inf),
        restriction_injective=frozenset(ker_res) == {zero_form},
        restriction_bijective_onto_invariants=(
            frozenset(ker_res) == {zero_form} and rep_g.order == hom_order
        ),
    )
