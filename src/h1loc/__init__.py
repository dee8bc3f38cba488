"""Exact computation of first (local) group cohomology over Z/p^n.

The package enumerates finite subgroups of GL_2(Z/p^n), computes H^1 and
the subgroup of classes that are locally trivial at every group element,
and mechanically verifies the explicit constructions that realize (or
rule out) non-vanishing for each shape of mod-p image.

`import h1loc` loads no submodule: each name below is imported from its
submodule on first access (PEP 562), so a caller pays only for the layers
it uses.
"""

import importlib

_EXPORTS = {
    "errors": ("ConsistencyError", "ContainmentError", "ContractError", "DimensionError",
               "InputError", "ResourceLimitError"),
    "ring": ("ModulusContext", "is_prime"),
    "zmod": ("SubmoduleBasis", "fixed_submodule", "howell_from_rows",
             "kernel_basis", "quotient_structure"),
    "groups": ("EigenData", "FiniteMatrixGroup", "borel_check", "close_group", "closure_indices",
               "eigen_data", "element_order", "group_from_json", "image_indices",
               "power_identity_check", "quotient_group", "reduction_kernel"),
    "cohomology": ("Cocycle", "CocycleSystem", "GModule", "H1Report", "full_module", "h1",
                   "h1_loc", "is_coboundary", "parse_module", "torsion_module", "verify_cocycle"),
    "constructions": ("Check", "ConstructionReport", "CriterionChecks", "HomSpace",
                      "InflationRestrictionReport", "KernelDecomposition",
                      "build_borel_disjoint_group", "build_borel_index2_group",
                      "build_borel_shared_group", "build_cyclic_quotient_group",
                      "build_s3_quotient_group", "borel_shared_witness", "canonical_unit_lift",
                      "check_nonvanishing_criterion", "decompose_kernel_element",
                      "equivariant_homs", "inflate_cocycle", "inflation_restriction_check",
                      "kernel_displacement", "restrict_cocycle", "s3_kernel_element",
                      "s3_generators", "shared_class_value", "verify_all"),
    "classify": ("CASE_BOREL", "CASE_CYCLIC", "CASE_NONE", "CASE_S3", "CaseVerdict",
                 "FilterVerdict", "ScanEntry", "classify_mod_p_group", "necessary_shape_filter",
                 "reverify_verdict", "scan_prime_to_p_subgroups"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # Not cached in the package namespace: the name reads the submodule's
    # current attribute, so a patch there is seen here too.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
