"""Value semantics of the package's records and validated values.

The records are NamedTuples and the two validated values (ModulusContext,
GModule) are slots classes: each compares and hashes by its fields, is
immutable, and a validated value keeps its constructor's errors.  A
validated value, a closed group and a report survive copy and pickle.
"""

import copy
import pickle

import pytest

from h1loc import (
    GModule,
    InputError,
    ModulusContext,
    borel_shared_witness,
    build_borel_shared_group,
    build_s3_quotient_group,
    check_nonvanishing_criterion,
    decompose_kernel_element,
    eigen_data,
    equivariant_homs,
    full_module,
    h1_loc,
    inflation_restriction_check,
    kernel_basis,
    reduction_kernel,
    scan_prime_to_p_subgroups,
)
from h1loc import classify, cohomology, constructions, groups, ring, zmod
from h1loc.constructions import report_borel_shared

LAYERS = (ring, zmod, groups, cohomology, constructions, classify)
# Records with a dict among their fields, directly or through a record.
UNHASHABLE = {"CaseVerdict", "ScanEntry", "HomSpace"}


@pytest.fixture(scope="module")
def records():
    ctx = ModulusContext(5, 2)
    group = build_borel_shared_group(5)
    bundle = borel_shared_witness(group)
    report = report_borel_shared(bundle)
    entry = next(e for e in scan_prime_to_p_subgroups(5) if e.verdict.case != "none")
    s3 = build_s3_quotient_group(5)
    kernel = reduction_kernel(group)
    sigma = group.index_of([[6, 1], [10, 6]])
    out = [
        kernel_basis(ctx, 2, []),
        eigen_data(ctx, (1, 0, 0, 24)),
        entry.verdict,
        entry.shape_filter,
        entry,
        bundle.witness,
        h1_loc(group, full_module(ctx)),
        equivariant_homs(group, kernel),
        inflation_restriction_check(s3),
        bundle,
        check_nonvanishing_criterion(s3),
        decompose_kernel_element(group, max(kernel), sigma),
        report.checks[0],
        report,
    ]
    return {type(r).__name__: r for r in out}


def _defined_classes():
    return [obj for mod in LAYERS for obj in vars(mod).values()
            if isinstance(obj, type) and obj.__module__ == mod.__name__]


def test_every_record_and_validated_value_is_covered(records):
    named = {cls.__name__ for cls in _defined_classes() if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert named == set(records) and len(named) == 14
    frozen = {cls.__name__ for cls in _defined_classes() if issubclass(cls, ring._Frozen) and cls is not ring._Frozen}
    assert frozen == {"ModulusContext", "GModule"}


def test_records_compare_hash_and_refuse_assignment(records):
    for name, record in records.items():
        copy = type(record)(*record)
        assert copy == record and copy is not record, name
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(copy) == hash(record), name
        for field in record._fields:
            assert record._replace(**{field: object()}) != record, (name, field)
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1


def _assert_frozen(value, fields):
    for field in fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_modulus_context_compares_p_and_n_only():
    a, b = ModulusContext(5, 2), ModulusContext(5, 2)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != ModulusContext(5, 3) and a != ModulusContext(7, 2) and a != (5, 2)
    object.__setattr__(b, "modulus", 0)  # past the guard: modulus is not compared
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "ModulusContext(p=5, n=2, modulus=25)"
    _assert_frozen(a, ("p", "n", "modulus"))


def test_gmodule_compares_ctx_and_kind_only():
    ctx = ModulusContext(5, 2)
    a, b = GModule(ctx, "mod_p_quotient"), GModule(ModulusContext(5, 2), "mod_p_quotient")
    assert a == b and hash(a) == hash(b)
    assert a != GModule(ctx, "full") and a != GModule(ModulusContext(5, 3), "mod_p_quotient")
    object.__setattr__(b, "coeff_ctx", ctx)  # past the guard: coeff_ctx is not compared
    assert a == b and hash(a) == hash(b) and a.coeff_ctx != b.coeff_ctx
    _assert_frozen(a, ("ctx", "kind", "coeff_ctx"))


@pytest.mark.parametrize("p, n, match", [
    (4, 1, "odd prime"), (2, 1, "odd prime"), (9, 2, "odd prime"), (1, 1, "odd prime"),
    (5, 0, "must be >= 1"), (3, 40, "63-bit"), (2**64 + 13, 1, "63-bit"),
])
def test_modulus_context_errors(p, n, match):
    with pytest.raises(InputError, match=match):
        ModulusContext(p, n)


def test_gmodule_errors():
    ctx = ModulusContext(5, 2)
    with pytest.raises(InputError, match="unknown module kind"):
        GModule(ctx, "bogus")
    with pytest.raises(InputError, match="trivial for n = 1"):
        GModule(ModulusContext(5, 1), "mod_p_quotient")


def _twins(value):
    """value through copy.copy, copy.deepcopy and a pickle round trip."""
    return [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


def test_validated_values_groups_and_reports_copy_and_pickle():
    ctx = ModulusContext(5, 2)
    for value in (ctx, GModule(ctx, "mod_p_quotient")):
        for twin in _twins(value):
            assert twin == value and repr(twin) == repr(value)
            _assert_frozen(twin, value.__slots__)
    group = build_borel_shared_group(5)
    for twin in _twins(group):
        assert vars(twin) == vars(group)
    report = h1_loc(group, full_module(ctx))
    assert report.witness is not None
    for twin in _twins(report):
        assert twin._replace(witness=None) == report._replace(witness=None)
        assert twin.witness.module == report.witness.module and twin.witness.values == report.witness.values
        assert vars(twin.witness.group) == vars(group)
        assert twin.to_json() == report.to_json()


def test_a_copy_is_rebuilt_through_the_constructor():
    # Only the compared fields travel, so a derived field is derived again
    # and a field pushed past the guard is validated again.
    derived = ModulusContext(5, 2)
    object.__setattr__(derived, "modulus", 0)
    assert all(twin.modulus == 25 for twin in _twins(derived))
    invalid = ModulusContext(5, 2)
    object.__setattr__(invalid, "p", 9)
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(InputError, match="odd prime"):
            clone(invalid)
