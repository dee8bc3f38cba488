"""Exact computation of first (local) group cohomology over Z/p^n.

The package enumerates finite subgroups of GL_2(Z/p^n), computes H^1 and
the subgroup of classes that are locally trivial at every group element,
and mechanically verifies the explicit constructions that realize (or
rule out) non-vanishing for each shape of mod-p image.
"""

from .errors import (
    ConsistencyError,
    ContainmentError,
    ContractError,
    DimensionError,
    InputError,
    ResourceLimitError,
)
from .zmod import (
    LinearSolution,
    LinearSolver,
    ModMatrix,
    ModulusContext,
    ModVector,
    SubmoduleBasis,
    dual_constraints,
    full_basis,
    howell_form,
    howell_from_rows,
    image_basis,
    is_prime,
    kernel_basis,
    quotient_invariants,
    quotient_structure,
    solve_linear,
)
from .groups import (
    EigenData,
    FiniteMatrixGroup,
    QuotientGroup,
    borel_check,
    close_group,
    closure_indices,
    eigen_data,
    element_order,
    fixed_submodule,
    group_from_json,
    group_to_json,
    power_identity_check,
    quotient_group,
    reduce_group_mod_p,
    reduction_kernel,
    subgroup_from_indices,
)
from .cohomology import (
    Cocycle,
    CocycleSystem,
    GModule,
    H1Report,
    HomSpace,
    InflationRestrictionReport,
    equivariant_homs,
    full_module,
    h1,
    h1_loc,
    inflate_cocycle,
    inflation_restriction_check,
    is_coboundary,
    parse_module,
    restrict_cocycle,
    torsion_module,
    verify_cocycle,
)
from .constructions import (
    Check,
    ConstructionReport,
    CriterionChecks,
    KernelDecomposition,
    build_borel_disjoint_group,
    build_borel_index2_group,
    build_borel_shared_group,
    build_cyclic_quotient_group,
    build_s3_quotient_group,
    borel_shared_witness,
    canonical_unit_lift,
    check_nonvanishing_criterion,
    decompose_kernel_element,
    kernel_displacement,
    s3_kernel_element,
    s3_generators,
    shared_class_value,
    verify_all,
)
from .classify import (
    CASE_BOREL,
    CASE_CYCLIC,
    CASE_NONE,
    CASE_S3,
    CaseVerdict,
    FilterVerdict,
    ScanEntry,
    classify_mod_p_group,
    necessary_shape_filter,
    reverify_verdict,
    scan_prime_to_p_subgroups,
)

__version__ = "0.1.0"
