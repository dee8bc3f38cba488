"""The explicit counterexample groups and their verification harness.

Three families of subgroups of GL_2(Z/p^2) realize the non-vanishing of the
first local cohomology group with coefficients in (Z/p^2)^2, one per shape
of the mod-p image:

* "s3-quotient": generated by an order-3 element with irreducible reduction,
  an order-2 lift inverting it, and a two-parameter kernel family; the
  quotient by the reduction kernel is S_3 (only exists for p = 2 mod 3).
* "cyclic-quotient": a split diagonal element of order p - 1 over a
  two-parameter kernel; the quotient is cyclic and fixes a torsion line.
* "borel-shared": an order-2 diagonal reflection and an order-p^2 almost
  unipotent element sharing their fixed torsion vector; contains the
  "borel-shared-index2" subgroup of index 2 which keeps the non-vanishing.

The fourth family, "borel-disjoint", has a Borel mod-p image whose order-2
and order-p generators fix different torsion lines, and its local cohomology
vanishes; it serves as the negative control.

Every builder comes with a report function that re-derives each step of the
non-vanishing (or vanishing) argument as a named boolean check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .cohomology import (
    Cocycle,
    CocycleSystem,
    GModule,
    H1Report,
    equivariant_homs,
    full_module,
    h1,
    h1_loc,
    inflate_cocycle,
    is_coboundary,
    restrict_cocycle,
    torsion_module,
    verify_cocycle,
)
from .errors import ConsistencyError, InputError
from .groups import (
    DEFAULT_GROUP_CAP,
    FiniteMatrixGroup,
    QuotientGroup,
    _invertible4,
    _inv4,
    _mul4,
    _pow4,
    _powers4,
    borel_check,
    close_group,
    closure_indices,
    element_order,
    power_identity_check,
    quotient_group,
    reduction_kernel,
)
from .zmod import ModMatrix, ModulusContext, ModVector, column_span2, is_prime, solve2, solve_linear

LABEL_S3 = "s3-quotient"
LABEL_CYCLIC = "cyclic-quotient"
LABEL_BOREL_SHARED = "borel-shared"
LABEL_BOREL_INDEX2 = "borel-shared-index2"
LABEL_BOREL_DISJOINT = "borel-disjoint"

ALL_LABELS = (
    LABEL_BOREL_DISJOINT,
    LABEL_BOREL_SHARED,
    LABEL_BOREL_INDEX2,
    LABEL_CYCLIC,
    LABEL_S3,
)

DISJOINT_VARIANTS = ("canonical", "extra-diagonal")


def _require_admissible_prime(p: int):
    if not is_prime(p) or p < 5:
        raise InputError(f"constructions require a prime p >= 5, got {p}")


# ---------------------------------------------------------------------------
# s3-quotient


def s3_kernel_element(ctx: ModulusContext, a: int, b: int) -> ModMatrix:
    """The kernel family member with parameters (a, b)."""
    p = ctx.p
    return ModMatrix.from_rows(
        ctx,
        [
            [1 + p * (a - 2 * b), 3 * p * (b - a)],
            [-p * b, 1 - p * (a - 2 * b)],
        ],
    )


def s3_generators(p: int) -> list[ModMatrix]:
    """Generators of the S_3-over-kernel group, without the residue gate.

    tau has characteristic polynomial x^2 + x + 1, hence order 3 over any
    ring; sigma is the pinned order-2 lift with sigma tau sigma^-1 = tau^2;
    the kernel family is generated by its (1,0) and (0,1) members.
    """
    _require_admissible_prime(p)
    ctx = ModulusContext(p, 2)
    tau = ModMatrix.from_rows(ctx, [[1, -3], [1, -2]])
    sigma = ModMatrix.from_rows(ctx, [[1, -3], [0, -1]])
    return [tau, sigma, s3_kernel_element(ctx, 1, 0), s3_kernel_element(ctx, 0, 1)]


def build_s3_quotient_group(p: int, cap: int = DEFAULT_GROUP_CAP) -> FiniteMatrixGroup:
    """The group with S_3 quotient; requires p = 2 mod 3.

    For p = 1 mod 3 the kernel family contains elements whose displacement
    matrix is singular mod p (a^2 - ab + b^2 has nontrivial zeros exactly
    then), so the non-vanishing argument breaks and the builder refuses.
    """
    _require_admissible_prime(p)
    if p % 3 != 2:
        raise InputError(f"the S_3 construction needs p = 2 mod 3; p = {p} is 1 mod 3")
    gens = s3_generators(p)
    return close_group(gens, gens[0].ctx, cap=cap, label=LABEL_S3)


# ---------------------------------------------------------------------------
# cyclic-quotient


def canonical_unit_lift(p: int) -> int:
    """The order-(p-1) unit of Z/p^2 lifting the least primitive root mod p.

    Raising any lift to the p-th power kills the p-part of its order while
    preserving the reduction mod p, so g0^p has order exactly p - 1.
    """
    _require_admissible_prime(p)
    g0 = None
    for cand in range(2, p):
        order = 0
        x = 1
        for k in range(1, p):
            x = x * cand % p
            if x == 1:
                order = k
                break
        if order == p - 1:
            g0 = cand
            break
    if g0 is None:
        raise ConsistencyError(f"no primitive root found modulo the prime {p}")
    return pow(g0, p, p * p)


def cyclic_generators(p: int) -> list[ModMatrix]:
    _require_admissible_prime(p)
    ctx = ModulusContext(p, 2)
    lam = canonical_unit_lift(p)
    g = ModMatrix.from_rows(ctx, [[lam, 0], [0, 1]])
    h10 = ModMatrix.from_rows(ctx, [[1 + p, 0], [0, 1 - p]])
    h01 = ModMatrix.from_rows(ctx, [[1, p], [0, 1]])
    return [g, h10, h01]


def build_cyclic_quotient_group(p: int, cap: int = DEFAULT_GROUP_CAP) -> FiniteMatrixGroup:
    gens = cyclic_generators(p)
    return close_group(gens, gens[0].ctx, cap=cap, label=LABEL_CYCLIC)


# ---------------------------------------------------------------------------
# borel-shared and its index-2 subgroup


def borel_shared_generators(p: int) -> list[ModMatrix]:
    _require_admissible_prime(p)
    ctx = ModulusContext(p, 2)
    g = ModMatrix.from_rows(ctx, [[1, 0], [0, -1]])
    sigma = ModMatrix.from_rows(ctx, [[1 + p, 1], [2 * p, 1 + p]])
    h = ModMatrix.from_rows(ctx, [[1 + p, 0], [0, 1 - p]])
    return [g, sigma, h]


def build_borel_shared_group(p: int, cap: int = DEFAULT_GROUP_CAP) -> FiniteMatrixGroup:
    gens = borel_shared_generators(p)
    return close_group(gens, gens[0].ctx, cap=cap, label=LABEL_BOREL_SHARED)


def build_borel_index2_group(p: int, cap: int = DEFAULT_GROUP_CAP) -> FiniteMatrixGroup:
    gens = borel_shared_generators(p)[1:]
    return close_group(gens, gens[0].ctx, cap=cap, label=LABEL_BOREL_INDEX2)


def shared_class_value(p: int, i1: int, i2: int) -> tuple[int, int]:
    """Torsion coordinates of the explicit class table at g^i1 sigma^i2.

    The cyclic sector carries the classical unipotent pattern
    (i2 (i2 - 1) / 2, i2); the value at the reflection sector is pinned by
    the dihedral relation g sigma g^-1 = sigma^-1: once the value at sigma
    is (0, 1), the cocycle identity forces the value (0, 1) at g, giving
    (i2 (i2 - 1) / 2, 1 - i2) on the reflections.
    """
    first = (i2 * (i2 - 1) // 2) % p
    second = i2 % p if i1 % 2 == 0 else (1 - i2) % p
    return (first, second)


@dataclass(frozen=True)
class BorelSharedWitness:
    """The explicit generator of the local cohomology of the borel-shared
    group: a class table on the quotient, its inflation, and its image in
    the full module."""

    group: FiniteMatrixGroup
    quotient: QuotientGroup
    class_table: Cocycle
    inflated: Cocycle
    witness: Cocycle


def borel_shared_witness(group: FiniteMatrixGroup) -> BorelSharedWitness:
    """Build the explicit witness cocycle from the closed-form class table."""
    ctx = group.ctx
    p = ctx.p
    kernel = reduction_kernel(group)
    quo = quotient_group(group, kernel)
    g_idx = group.index_of([[1, 0], [0, -1]])
    s_idx = group.index_of([[1 + p, 1], [2 * p, 1 + p]])
    values: list[Optional[tuple[int, int]]] = [None] * len(quo)
    for i1 in range(2):
        idx = 0 if i1 == 0 else g_idx
        for i2 in range(p):
            cos = quo.coset_of(idx)
            if values[cos] is not None:
                raise ConsistencyError("normal form hit the same coset twice")
            values[cos] = shared_class_value(p, i1, i2)
            idx = group.mult(idx, s_idx)
    if any(v is None for v in values):
        raise ConsistencyError("normal form g^i1 sigma^i2 missed a coset")
    table = Cocycle(quo, GModule(ctx, "p_torsion"), tuple(values))  # type: ignore[arg-type]
    if not verify_cocycle(table, full=True):
        raise ConsistencyError("closed-form class table fails the cocycle identity")
    inflated = inflate_cocycle(quo, table)
    return BorelSharedWitness(group, quo, table, inflated, inflated.to_full_module())


# ---------------------------------------------------------------------------
# borel-disjoint


def borel_disjoint_generators(p: int, variant: str = "canonical") -> list[ModMatrix]:
    _require_admissible_prime(p)
    ctx = ModulusContext(p, 2)
    g = ModMatrix.from_rows(ctx, [[-1, 0], [0, 1]])
    sigma = ModMatrix.from_rows(ctx, [[1, 1], [0, 1]])
    gens = [g, sigma]
    if variant == "canonical":
        return gens
    if variant == "extra-diagonal":
        return gens + [ModMatrix.from_rows(ctx, [[1 + p, 0], [0, 1 - p]])]
    raise InputError(f"unknown variant {variant!r}; expected one of {DISJOINT_VARIANTS}")


def build_borel_disjoint_group(
    p: int,
    n: int = 2,
    variant: str = "canonical",
    extra_kernel_generators: Sequence[ModMatrix] = (),
    cap: int = DEFAULT_GROUP_CAP,
) -> FiniteMatrixGroup:
    """Borel mod-p image, order-2 and order-p generators with disjoint
    fixed torsion lines; local cohomology vanishes on these groups.

    Extra generators must be congruent to the identity mod p so that the
    quotient shape is preserved; any violation of the disjoint-fixed-vector
    hypothesis is rejected.
    """
    if n != 2:
        raise InputError("only n = 2 instances are built here")
    gens = borel_disjoint_generators(p, variant)
    ctx = gens[0].ctx
    p_ = ctx.p
    for extra in extra_kernel_generators:
        if extra.ctx != ctx:
            raise InputError("extra generators must live over the same ring")
        if any(e % p_ for e in (extra - ModMatrix.identity(ctx, 2)).entries):
            raise InputError("extra generators must be congruent to the identity mod p")
        gens = gens + [extra]
    label = f"{LABEL_BOREL_DISJOINT}[{variant}]"
    group = close_group(gens, ctx, cap=cap, label=label)
    _check_disjoint_hypotheses(group, gens[0], gens[1])
    return group


def _check_disjoint_hypotheses(group: FiniteMatrixGroup, g: ModMatrix, sigma: ModMatrix):
    p = group.ctx.p
    ctx_p = ModulusContext(p, 1)
    if borel_check(group) is None:
        raise InputError("variant violates the Borel hypothesis: no common eigenvector mod p")
    g_bar, s_bar = g.reduce_to(ctx_p), sigma.reduce_to(ctx_p)
    if element_order(g_bar) != 2 or element_order(s_bar) != p:
        raise InputError("variant does not reduce to an order-2 and an order-p generator")
    from .groups import fixed_submodule

    common = fixed_submodule(ctx_p, [g_bar, s_bar])
    if not common.is_zero():
        raise InputError("variant violates the hypothesis: the generators fix a common torsion vector")


# ---------------------------------------------------------------------------
# The four-hypothesis non-vanishing criterion.


@dataclass(frozen=True)
class CriterionChecks:
    """The four named hypotheses of the lifting criterion for non-vanishing.

    1. some element fixes only 0;
    2. the reduction kernel embeds equivariantly into the p-torsion;
    3. every non-identity kernel element h = Id + pN has N invertible mod p
       (so h - Id maps V/V[p] isomorphically onto V[p]);
    4. the quotient by the kernel has order prime to p.
    """

    fixed_point_free_element: bool
    kernel_embeds_in_torsion: bool
    kernel_displacement_invertible: bool
    quotient_order_prime_to_p: bool
    fixed_point_free_witness: Optional[int] = None
    failing_kernel_index: Optional[int] = None
    hom_space_dimension: int = 0
    explanation: str = ""

    def all_hold(self) -> bool:
        return (
            self.fixed_point_free_element
            and self.kernel_embeds_in_torsion
            and self.kernel_displacement_invertible
            and self.quotient_order_prime_to_p
        )

    def as_tuple(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.fixed_point_free_element,
            self.kernel_embeds_in_torsion,
            self.kernel_displacement_invertible,
            self.quotient_order_prime_to_p,
        )


def check_nonvanishing_criterion(group: FiniteMatrixGroup) -> CriterionChecks:
    """Evaluate the four hypotheses on a group over Z/p^2."""
    ctx = group.ctx
    if ctx.n != 2:
        raise InputError("the criterion checker works over Z/p^2")
    p = ctx.p
    ident = ModMatrix.identity(ctx, 2)

    delta = None
    from .zmod import kernel_basis

    for i in range(len(group)):
        if kernel_basis(group.matrix(i) - ident).is_zero():
            delta = i
            break

    kernel = reduction_kernel(group)
    explanation = ""
    if len(kernel) == 1:
        embeds = False
        hom_dim = 0
        explanation = "the reduction kernel is trivial, so no nontrivial submodule is isomorphic to it"
    else:
        hom = equivariant_homs(group, kernel, torsion_module(ctx))
        hom_dim = hom.dimension
        embeds = hom.injective_exists

    failing = None
    for idx in sorted(kernel):
        if idx == 0:
            continue
        if not _invertible4(kernel_displacement(group, idx).entries, p):
            failing = idx
            break

    quotient_ok = (len(group) // len(kernel)) % p != 0

    return CriterionChecks(
        fixed_point_free_element=delta is not None,
        kernel_embeds_in_torsion=embeds,
        kernel_displacement_invertible=failing is None,
        quotient_order_prime_to_p=quotient_ok,
        fixed_point_free_witness=delta,
        failing_kernel_index=failing,
        hom_space_dimension=hom_dim,
        explanation=explanation,
    )


def kernel_displacement(group: FiniteMatrixGroup, index: int) -> ModMatrix:
    """N with element = Id + pN, entries taken in (-p^2/2, p^2/2) before
    division so the matrix is well defined mod p."""
    ctx = group.ctx
    p = ctx.p
    diff = group.matrix(index) - ModMatrix.identity(ctx, 2)
    half = ctx.modulus // 2
    ctx_p = ModulusContext(p, 1)
    ents = tuple(((e if e <= half else e - ctx.modulus) // p) % p for e in diff.entries)
    return ModMatrix(ctx_p, 2, 2, ents)


# ---------------------------------------------------------------------------
# Decomposition of kernel elements in the borel-shared group.


@dataclass(frozen=True)
class KernelDecomposition:
    diagonal_index: int
    unitriangular_index: int
    sigma_p_exponent: int


def decompose_kernel_element(
    group: FiniteMatrixGroup, tau_index: int, sigma_index: int
) -> KernelDecomposition:
    """Write a reduction-kernel element as diagonal * lower-unitriangular *
    sigma^(p * exponent), by iteratively clearing the top-right entry with
    powers of sigma^p and then splitting off the diagonal part.

    All three factors are verified to lie in the kernel and to multiply
    back to the original element.
    """
    ctx = group.ctx
    p, q = ctx.p, ctx.modulus
    kernel = reduction_kernel(group)
    if tau_index not in kernel:
        raise InputError("element is not in the reduction kernel")
    sigma = group._keys[sigma_index]
    tau = group._keys[tau_index]

    lam_acc = 0
    cur = tau
    ord_sigma = len(_powers4(sigma, q))
    # Top-right entry valuation strictly increases each round.
    for _ in range(ctx.n + 1):
        t = cur[1]
        if t == 0:
            break
        v, _unit = ctx.valuation(t)
        if v == 0:
            raise InputError("element is not congruent to the identity mod p")
        gi = t // (p**v)
        step = -(p ** (v - 1)) * gi
        lam_acc += step
        cur = _mul4(cur, _pow4(sigma, (p * step) % ord_sigma, q), q)
    if cur[1] != 0:
        raise ConsistencyError("top-right clearing did not terminate")
    diag = (cur[0], 0, 0, cur[3])
    unit = _mul4(_inv4(diag, q), cur, q)
    sig_p = _pow4(sigma, p, q)
    period = len(_powers4(sig_p, q))
    exponent = (-lam_acc) % period
    d_idx = group.index_of([diag[:2], diag[2:]])
    u_idx = group.index_of([unit[:2], unit[2:]])
    if d_idx not in kernel or u_idx not in kernel:
        raise ConsistencyError("decomposition factors left the kernel")
    if unit[1] != 0 or unit[0] != 1 or unit[3] != 1:
        raise ConsistencyError("second factor is not lower unitriangular")
    recomposed = _mul4(_mul4(diag, unit, q), _pow4(sig_p, exponent, q), q)
    if recomposed != tau:
        raise ConsistencyError("decomposition does not multiply back")
    return KernelDecomposition(d_idx, u_idx, exponent)


# ---------------------------------------------------------------------------
# Reports.


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ConstructionReport:
    label: str
    p: int
    expected_nontrivial: Optional[bool]
    group_order: int = 0
    kernel_order: int = 0
    quotient_order: int = 0
    h1loc: Optional[H1Report] = None
    checks: tuple[Check, ...] = ()
    skipped_reason: Optional[str] = None

    @property
    def status(self) -> str:
        if self.skipped_reason is not None:
            return "skipped"
        if all(c.passed for c in self.checks) and self._verdict_matches():
            return "passed"
        return "failed"

    def _verdict_matches(self) -> bool:
        if self.h1loc is None or self.expected_nontrivial is None:
            return True
        return (self.h1loc.order > 1) == self.expected_nontrivial

    def failing_checks(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "p": self.p,
            "status": self.status,
            "skipped_reason": self.skipped_reason,
            "expected_nontrivial": self.expected_nontrivial,
            "group_order": self.group_order,
            "kernel_order": self.kernel_order,
            "quotient_order": self.quotient_order,
            "h1loc": self.h1loc.to_json() if self.h1loc is not None else None,
            "checks": [{"name": c.name, "passed": c.passed, "note": c.note} for c in self.checks],
        }


def torsion_shape_admits(ctx: ModulusContext, key: tuple, value: tuple[int, int]) -> bool:
    """Whether (x - Id) v = value has a solution v with p v_1 = 0, for the
    element x over ctx with this key.

    Over Z/p^n, p v_1 = 0 exactly when v_1 = p^(n-1) t, so this is the 2x2
    system [[a - 1, b p^(n-1)], [c, (d - 1) p^(n-1)]] (v_0, t) = value,
    decided in closed form (zmod.column_span2) and re-checked by solve2.
    """
    q, s = ctx.modulus, ctx.p ** (ctx.n - 1)
    a, b, c, d = key
    m = ModMatrix(ctx, 2, 2, ((a - 1) % q, b * s % q, c, (d - 1) * s % q))
    return solve2(m, column_span2(m), value) is not None


def _solution_set(a: ModMatrix, b: ModVector, limit: int = 20000):
    sol = solve_linear(a, b)
    if not sol.solvable:
        return []
    return list(sol.all_solutions(limit))


def report_s3_quotient(p: int, cap: int = DEFAULT_GROUP_CAP) -> ConstructionReport:
    if p % 3 != 2:
        return ConstructionReport(
            label=LABEL_S3,
            p=p,
            expected_nontrivial=True,
            skipped_reason=f"requires p = 2 mod 3; {p} = 1 mod 3",
        )
    group = build_s3_quotient_group(p, cap=cap)
    ctx = group.ctx
    q = ctx.modulus
    checks = []
    tau_i = group.index_of([[1, -3], [1, -2]])
    sig_i = group.index_of([[1, -3], [0, -1]])
    checks.append(Check("tau_has_order_3", len(_powers4(group._keys[tau_i], q)) == 3))
    checks.append(Check("sigma_has_order_2", len(_powers4(group._keys[sig_i], q)) == 2))
    conj = group.mult(group.mult(sig_i, tau_i), group.inv(sig_i))
    checks.append(Check("sigma_inverts_tau_to_square", conj == group.mult(tau_i, tau_i)))
    # The pinned order-2 lift reduces to the two-parameter reflection shape.
    ctx_p = ModulusContext(p, 1)
    sbar = group.matrix(sig_i).reduce_to(ctx_p)
    beta = sbar.entry(1, 0)
    alpha = (2 * beta - sbar.entry(1, 1)) % p
    shape = ModMatrix.from_rows(
        ctx_p, [[alpha - 2 * beta, 3 * (beta - alpha)], [beta, 2 * beta - alpha]]
    )
    checks.append(Check("order2_lift_has_reflection_shape", shape == sbar))

    family = {s3_kernel_element(ctx, a, b).entries for a in range(p) for b in range(p)}
    kernel = reduction_kernel(group)
    kernel_mats = {group._keys[i] for i in kernel}
    checks.append(Check("kernel_family_size_p2", len(family) == p * p))
    checks.append(Check("family_equals_reduction_kernel", family == kernel_mats))
    for name, gi in (("tau_normalizes_family", tau_i), ("sigma_normalizes_family", sig_i)):
        conj_set = group.conjugate_set(gi, kernel)
        checks.append(Check(name, conj_set == kernel))

    checks.append(Check("group_order_6p2", len(group) == 6 * p * p))
    quo = quotient_group(group, kernel)
    checks.append(Check("quotient_is_s3", len(quo) == 6 and not quo.is_abelian()))
    quo_h1 = h1(quo, GModule(ctx, "p_torsion"))
    checks.append(Check("quotient_torsion_h1_trivial", quo_h1.order == 1))

    crit = check_nonvanishing_criterion(group)
    checks.append(Check("criterion_hypotheses_all_hold", crit.all_hold(), str(crit.as_tuple())))

    rep = h1_loc(group, full_module(ctx))
    checks.append(Check("h1loc_nontrivial", rep.order > 1, f"order {rep.order}"))
    checks.append(Check("witness_class_has_order_p", bool(rep.invariant_factors) and rep.invariant_factors[0] == p))
    if rep.witness is not None:
        checks.append(Check("witness_not_coboundary", is_coboundary(group, full_module(ctx), rep.witness) is None))
    return ConstructionReport(
        label=LABEL_S3,
        p=p,
        expected_nontrivial=True,
        group_order=len(group),
        kernel_order=len(kernel),
        quotient_order=len(quo),
        h1loc=rep,
        checks=tuple(checks),
    )


def report_cyclic_quotient(p: int, cap: int = DEFAULT_GROUP_CAP) -> ConstructionReport:
    group = build_cyclic_quotient_group(p, cap=cap)
    ctx = group.ctx
    q = ctx.modulus
    lam = canonical_unit_lift(p)
    checks = []
    order = 1
    x = lam % q
    while x != 1:
        x = x * lam % q
        order += 1
    checks.append(Check("lambda_has_order_p_minus_1", order == p - 1, f"lambda = {lam}"))
    checks.append(Check("group_order", len(group) == (p - 1) * p * p))
    kernel = reduction_kernel(group)
    checks.append(Check("kernel_order_p2", len(kernel) == p * p))
    quo = quotient_group(group, kernel)
    checks.append(Check("quotient_cyclic_order_p_minus_1", len(quo) == p - 1 and quo.is_abelian()))

    g_i = group.index_of([[lam, 0], [0, 1]])
    h10_i = group.index_of([[1 + p, 0], [0, 1 - p]])
    h01_i = group.index_of([[1, p], [0, 1]])
    g_key, h01_key, h10_key = group._keys[g_i], group._keys[h01_i], group._keys[h10_i]
    conj = _mul4(_mul4(g_key, h01_key, q), _inv4(g_key, q), q)
    checks.append(Check("conjugation_twists_unitriangular", conj == _pow4(h01_key, lam, q)))
    g_mat, h01, h10 = group.matrix(g_i), group.matrix(h01_i), group.matrix(h10_i)
    checks.append(
        Check(
            "scaling_on_fixed_torsion",
            g_mat.vec_mul(ModVector.make(ctx, [p, 0])) == ModVector.make(ctx, [p, 0]).scale(lam),
        )
    )

    hom = equivariant_homs(group, kernel, torsion_module(ctx))
    target = {h01_i: (1, 0), h10_i: (0, 0)}
    found = any(
        all(hom.map_values(phi)[idx] == val for idx, val in target.items())
        for phi in hom.enumerate_maps()
    )
    checks.append(Check("explicit_equivariant_hom_exists", found, f"hom space dim {hom.dimension}"))

    ident = ModMatrix.identity(ctx, 2)
    solvable_all = True
    for a in range(p):
        for b in range(p):
            hab = ModMatrix(ctx, 2, 2, _mul4(_pow4(h10_key, a, q), _pow4(h01_key, b, q), q))
            rhs = ModVector.make(ctx, [b * p, 0])
            if not solve_linear(hab - ident, rhs).solvable:
                solvable_all = False
    checks.append(Check("kernel_family_locally_solvable", solvable_all))

    zero_sols = _solution_set(h10 - ident, ModVector.make(ctx, [0, 0]))
    checks.append(
        Check(
            "diagonal_kernel_forces_divisibility",
            all(s.coords[0] % p == 0 and s.coords[1] % p == 0 for s in zero_sols),
        )
    )
    shift_sols = _solution_set(h01 - ident, ModVector.make(ctx, [p, 0]))
    checks.append(
        Check(
            "unitriangular_target_forces_unit_coordinate",
            bool(shift_sols) and all(s.coords[1] % p == 1 for s in shift_sols),
        )
    )
    crit = check_nonvanishing_criterion(group)
    checks.append(
        Check(
            "criterion_hypothesis_3_fails_here",
            not crit.kernel_displacement_invertible,
            f"failing kernel index {crit.failing_kernel_index}",
        )
    )

    rep = h1_loc(group, full_module(ctx))
    checks.append(Check("h1loc_nontrivial", rep.order > 1, f"order {rep.order}"))
    checks.append(Check("witness_class_has_order_p", bool(rep.invariant_factors) and rep.invariant_factors[0] == p))
    if rep.witness is not None:
        checks.append(Check("witness_not_coboundary", is_coboundary(group, full_module(ctx), rep.witness) is None))
    return ConstructionReport(
        label=LABEL_CYCLIC,
        p=p,
        expected_nontrivial=True,
        group_order=len(group),
        kernel_order=len(kernel),
        quotient_order=len(quo),
        h1loc=rep,
        checks=tuple(checks),
    )


def report_borel_shared(p: int, cap: int = DEFAULT_GROUP_CAP, seed: int = 0, tuples: int = 200) -> ConstructionReport:
    group = build_borel_shared_group(p, cap=cap)
    ctx = group.ctx
    q = ctx.modulus
    checks = []
    checks.append(Check("group_order_2p3", len(group) == 2 * p**3))
    kernel = reduction_kernel(group)
    checks.append(Check("kernel_order_p2", len(kernel) == p * p))
    quo = quotient_group(group, kernel)
    checks.append(Check("quotient_order_2p", len(quo) == 2 * p))

    sig_i = group.index_of([[1 + p, 1], [2 * p, 1 + p]])
    h_i = group.index_of([[1 + p, 0], [0, 1 - p]])
    # sigma^i2 is sigma_powers[i2 % order of sigma].
    sigma_powers = _powers4(group._keys[sig_i], q)
    checks.append(Check("sigma_has_order_p2", len(sigma_powers) == p * p))

    pattern_ok = True
    for i2 in range(1, p + 1):
        power = sigma_powers[i2 % len(sigma_powers)]
        if power[1] % p != i2 % p or power[2] != (2 * i2 * p) % q:
            pattern_ok = False
    checks.append(Check("sigma_power_entry_pattern", pattern_ok))

    gen_kernel = closure_indices(group, [group.index_of([[1, p], [0, 1]]), h_i])
    checks.append(Check("kernel_generated_by_unitriangular_and_diagonal", gen_kernel == kernel))

    rng = random.Random(seed)
    power_ok = all(
        power_identity_check(rng.randrange(q), rng.randrange(q), rng.randrange(q), rng.randrange(q), ctx)
        for _ in range(tuples)
    )
    checks.append(Check("unipotent_power_identity_random", power_ok, f"{tuples} tuples, seed {seed}"))

    bundle = borel_shared_witness(group)
    checks.append(Check("class_table_is_cocycle", verify_cocycle(bundle.class_table, full=True)))
    cyc_ok = all(
        bundle.class_table.values[bundle.quotient.coset_of(group._index[sigma_powers[i2 % len(sigma_powers)]])]
        == ((i2 * (i2 - 1) // 2) % p, i2 % p)
        for i2 in range(p)
    )
    checks.append(Check("class_table_cyclic_sector", cyc_ok))
    # The reflection value is forced: zeroing it breaks the identity.
    broken = list(bundle.class_table.values)
    broken[bundle.quotient.coset_of(group.index_of([[1, 0], [0, -1]]))] = (0, 0)
    naive = Cocycle(bundle.quotient, bundle.class_table.module, tuple(broken))
    checks.append(Check("reflection_value_forced_by_relation", not verify_cocycle(naive, full=True)))

    w = bundle.witness
    checks.append(Check("witness_value_at_sigma", w.values[sig_i] == (0, p)))
    checks.append(Check("witness_vanishes_on_kernel", all(w.values[i] == (0, 0) for i in kernel)))

    shaped = all(torsion_shape_admits(ctx, k, v) for k, v in zip(group._keys, w.values))
    checks.append(Check("witness_locally_solvable_with_torsion_shape", shaped))

    ident = ModMatrix.identity(ctx, 2)
    sig_sols = _solution_set(group.matrix(sig_i) - ident, ModVector.make(ctx, [0, p]))
    checks.append(
        Check(
            "sigma_target_needs_unit_coordinate",
            bool(sig_sols) and all(s.coords[0] % p != 0 for s in sig_sols),
        )
    )
    h_sols = _solution_set(group.matrix(h_i) - ident, ModVector.make(ctx, [0, 0]))
    checks.append(
        Check(
            "diagonal_kernel_needs_divisible_coordinate",
            all(s.coords[0] % p == 0 for s in h_sols),
        )
    )
    checks.append(Check("witness_not_coboundary", is_coboundary(group, full_module(ctx), w) is None))

    rep = h1_loc(group, full_module(ctx))
    checks.append(Check("h1loc_nontrivial", rep.order > 1, f"order {rep.order}"))
    checks.append(Check("witness_class_has_order_p", bool(rep.invariant_factors) and rep.invariant_factors[0] == p))
    system = CocycleSystem(group, full_module(ctx))
    checks.append(
        Check(
            "explicit_witness_in_local_space",
            system.z1_local().contains(ModVector(system.cctx, system.compress(w))),
        )
    )
    return ConstructionReport(
        label=LABEL_BOREL_SHARED,
        p=p,
        expected_nontrivial=True,
        group_order=len(group),
        kernel_order=len(kernel),
        quotient_order=len(quo),
        h1loc=rep,
        checks=tuple(checks),
    )



def report_borel_index2(p: int, cap: int = DEFAULT_GROUP_CAP) -> ConstructionReport:
    parent = build_borel_shared_group(p, cap=cap)
    sub = build_borel_index2_group(p, cap=cap)
    ctx = sub.ctx
    checks = []
    checks.append(Check("subgroup_order_p3", len(sub) == p**3))
    inside = all(k in parent._index for k in sub._keys)
    checks.append(Check("contained_in_parent", inside))
    checks.append(Check("index_2", len(parent) == 2 * len(sub)))

    bundle = borel_shared_witness(parent)
    restricted = restrict_cocycle(bundle.witness, sub)
    checks.append(
        Check(
            "restricted_witness_not_coboundary",
            is_coboundary(sub, full_module(ctx), restricted) is None,
        )
    )
    rep = h1_loc(sub, full_module(ctx))
    checks.append(Check("h1loc_nontrivial", rep.order > 1, f"order {rep.order}"))
    checks.append(Check("witness_class_has_order_p", bool(rep.invariant_factors) and rep.invariant_factors[0] == p))
    kernel = reduction_kernel(sub)
    return ConstructionReport(
        label=LABEL_BOREL_INDEX2,
        p=p,
        expected_nontrivial=True,
        group_order=len(sub),
        kernel_order=len(kernel),
        quotient_order=len(sub) // len(kernel),
        h1loc=rep,
        checks=tuple(checks),
    )


def report_borel_disjoint(p: int, cap: int = DEFAULT_GROUP_CAP) -> ConstructionReport:
    checks = []
    reps = {}
    first_group = None
    for variant in DISJOINT_VARIANTS:
        group = build_borel_disjoint_group(p, variant=variant, cap=cap)
        if first_group is None:
            first_group = group
        ctx = group.ctx
        pn1 = p ** (ctx.n - 1)
        g_mat = group.matrix(group.index_of([[-1, 0], [0, 1]]))
        s_mat = group.matrix(group.index_of([[1, 1], [0, 1]]))
        e1 = ModVector.make(ctx, [pn1, 0])
        e2 = ModVector.make(ctx, [0, pn1])
        pattern = (
            s_mat.vec_mul(e1) == e1
            and g_mat.vec_mul(e1) == -e1
            and g_mat.vec_mul(e2) == e2
            and s_mat.vec_mul(e2) == ModVector.make(ctx, [pn1, pn1])
        )
        checks.append(Check(f"torsion_action_pattern[{variant}]", pattern))
        kernel = reduction_kernel(group)
        quo = quotient_group(group, kernel)
        quo_h1 = h1(quo, GModule(ctx, "p_torsion"))
        checks.append(Check(f"quotient_torsion_h1_trivial[{variant}]", quo_h1.order == 1))
        rep = h1_loc(group, full_module(ctx))
        reps[variant] = rep
        checks.append(Check(f"h1loc_trivial[{variant}]", rep.order == 1, f"order {rep.order}"))
        if variant == "canonical":
            checks.append(Check("canonical_order_2p2", len(group) == 2 * p * p))
        else:
            checks.append(Check("extra_diagonal_order_2p3", len(group) == 2 * p**3))
    kernel = reduction_kernel(first_group)
    return ConstructionReport(
        label=LABEL_BOREL_DISJOINT,
        p=p,
        expected_nontrivial=False,
        group_order=len(first_group),
        kernel_order=len(kernel),
        quotient_order=len(first_group) // len(kernel),
        h1loc=reps["canonical"],
        checks=tuple(checks),
    )


_REPORTERS = {
    LABEL_BOREL_DISJOINT: report_borel_disjoint,
    LABEL_BOREL_SHARED: report_borel_shared,
    LABEL_BOREL_INDEX2: report_borel_index2,
    LABEL_CYCLIC: report_cyclic_quotient,
    LABEL_S3: report_s3_quotient,
}


def verify_all(primes: Sequence[int], cap: int = DEFAULT_GROUP_CAP) -> list[ConstructionReport]:
    """Run every construction for every prime; reports sorted by label, p.

    The S_3 construction is reported as skipped (not failed) for
    p = 1 mod 3, which is outside its hypothesis.
    """
    for p in primes:
        _require_admissible_prime(p)
    out = []
    for p in sorted(primes):
        for label in ALL_LABELS:
            out.append(_REPORTERS[label](p, cap=cap))
    out.sort(key=lambda r: (r.label, r.p))
    return out
