"""Record semantics: every public record is immutable.

Plain records are `typing.NamedTuple`s and equal tuples of their fields.
`Catalog`, `Fleet`, `UtilizationPolicy` and `SynthSpec` are not tuples: they
check their input on every way of building one, and `len()` and `in` keep
their own meaning. A catalog's CSV round trip and a policy's snapshot of its
factors are checked in test_catalog.py and test_model.py.
"""

import copy
import inspect
import math
import pickle
import re
import sys

import pytest

import rightsizer
from helpers import ABC_ENTRIES, abc_catalog, one_workload_fleet
from rightsizer import (
    Catalog,
    Fleet,
    InstanceType,
    SynthSpec,
    UtilizationPolicy,
    WorkloadProfile,
)
from rightsizer.errors import InvalidPolicyError
from rightsizer.reports import Column, Report

NOT_RECORDS = {rightsizer.Metric, rightsizer.SeriesAccumulator}  # an enum, and a mutable accumulator
VALIDATED = (Catalog, Fleet, UtilizationPolicy, SynthSpec)


def public_classes():
    classes = [getattr(rightsizer, name) for name in rightsizer.__all__]
    return [c for c in classes if inspect.isclass(c) and c not in NOT_RECORDS] + [Column, Report]


def plain_records():
    return [c for c in public_classes() if c not in VALIDATED]


def validated_pairs():
    # each validated record, with one of its type that differs in one field
    catalog = abc_catalog()
    return [
        (catalog, Catalog(ABC_ENTRIES[:2])),
        (one_workload_fleet(), one_workload_fleet(cpu=1.0)),
        (UtilizationPolicy(1.5, {"w1": 2.0}), UtilizationPolicy(1.5, {"w1": 2.5})),
        (SynthSpec(0, 3, 2, catalog), SynthSpec(1, 3, 2, catalog)),
    ]


def validated_instances():
    return [record for record, _ in validated_pairs()]


def test_every_public_class_is_a_named_tuple_or_a_validated_record():
    assert len(plain_records()) == 23
    for cls in plain_records():
        assert issubclass(cls, tuple) and isinstance(cls._fields, tuple), cls
    assert {type(value) for value in validated_instances()} == set(VALIDATED)


@pytest.mark.parametrize("cls", plain_records(), ids=lambda cls: cls.__name__)
def test_a_named_tuple_record_refuses_attribute_assignment(cls):
    record = cls(*range(len(cls._fields)))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], "changed")
    with pytest.raises(AttributeError):
        record.not_a_field = "new"
    assert record == tuple(range(len(cls._fields)))


@pytest.mark.parametrize("record", validated_instances(), ids=lambda record: type(record).__name__)
def test_a_validated_record_refuses_attribute_assignment_and_is_not_a_tuple(record):
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = "new"
    assert not isinstance(record, tuple)
    assert not hasattr(record, "_replace") and not hasattr(record, "_make")


@pytest.mark.parametrize("record, other", validated_pairs(), ids=lambda record: type(record).__name__)
def test_a_validated_record_compares_hashes_copies_and_pickles_by_its_fields(record, other):
    again = copy.copy(record)
    assert again == record and again is not record
    assert record != other and record != record._values()
    assert repr(record).startswith(f"{type(record).__name__}({type(record)._fields[0]}=")
    if type(record) is not UtilizationPolicy:  # its read-only factors mapping neither hashes nor pickles
        assert hash(again) == hash(record)
        assert pickle.loads(pickle.dumps(record)) == record


def exact(message):
    return f"^{re.escape(message)}$"


def test_catalog_checks_its_entries():
    with pytest.raises(ValueError, match=exact("catalog must contain at least one instance type")):
        Catalog(())
    with pytest.raises(ValueError, match=exact("catalog keys must be unique")):
        Catalog(ABC_ENTRIES + (InstanceType(ABC_ENTRIES[0].key, 1.0, 1.0, 1.0),))
    # built in code, a CR in a key or a workload id would otherwise reach model.dat through export_ampl
    for key in ("lin.a\r.r1", "lin.\x00.r1", "lin.a.r1\x7f"):
        with pytest.raises(ValueError, match=exact(f"catalog key {key!r} holds a control character")):
            Catalog(ABC_ENTRIES + (InstanceType(key, 1.0, 1.0, 1.0),))


def test_fleet_checks_its_workloads():
    with pytest.raises(ValueError, match=exact("fleet must contain at least one workload")):
        Fleet(())
    w = WorkloadProfile("w1", "lin.a.small.r1", 1.0, 2.0)
    with pytest.raises(ValueError, match=exact("workload ids must be unique")):
        Fleet((w, w._replace(cpu_demand=0.5)))
    for workload_id in ("w\r1", "w\t1", "\x1f"):
        with pytest.raises(ValueError, match=exact(f"workload id {workload_id!r} holds a control character")):
            Fleet((w, w._replace(id=workload_id)))
    for demands in ({"cpu_demand": -1e-300}, {"mem_demand": -math.inf}, {"mem_demand": math.nan},
                    {"cpu_demand": math.inf}, {"mem_demand": math.inf}):
        with pytest.raises(ValueError, match=exact("workload 'w2' has a demand that is negative or not finite")):
            Fleet((w, w._replace(id="w2", **demands)))
    # zero demands, a negative zero and the largest float are allowed
    Fleet((w._replace(cpu_demand=0.0, mem_demand=-0.0), w._replace(id="w2", mem_demand=sys.float_info.max)))


@pytest.mark.parametrize("cpu, mem, cost", [
    (math.inf, math.inf, 0.01),  # once solve_exact put an infinite demand here, at 0 % utilization
    (math.nan, 4.0, -0.1),
    (2.0, 4.0, math.inf),
    (2.0, math.nan, 0.1),
    (2.0, 4.0, math.nan),
    (0.0, 4.0, 0.1),
    (2.0, -0.0, 0.1),
    (2.0, 4.0, -1e-300),
])
def test_catalog_refuses_a_capacity_or_cost_that_is_not_finite_and_positive(cpu, mem, cost):
    message = "catalog type 'lin.d.huge.r1': capacities and cost must be finite and positive"
    with pytest.raises(ValueError, match=exact(message)):
        Catalog(ABC_ENTRIES + (InstanceType("lin.d.huge.r1", cpu, mem, cost),))


def test_catalog_accepts_the_smallest_and_largest_positive_floats():
    tiny, huge = 5e-324, sys.float_info.max
    catalog = Catalog(ABC_ENTRIES + (InstanceType("lin.d.huge.r1", huge, tiny, tiny),))
    assert catalog.lookup("lin.d.huge.r1") == InstanceType("lin.d.huge.r1", huge, tiny, tiny)


@pytest.mark.parametrize("default, factors, message", [
    (0.5, {}, "default utilization factor 0.5 is not a finite number >= 1"),
    (math.inf, {}, "default utilization factor inf is not a finite number >= 1"),
    (1.5, {"w1": 0.9}, "utilization factor 0.9 for 'w1' is not a finite number >= 1"),
    (1.5, {"w1": 2.0, "w2": math.nan}, "utilization factor nan for 'w2' is not a finite number >= 1"),
])
def test_utilization_policy_checks_its_factors(default, factors, message):
    with pytest.raises(InvalidPolicyError, match=exact(message)):
        UtilizationPolicy(default, factors)
    with pytest.raises(InvalidPolicyError, match=exact(message)):
        UtilizationPolicy(default=default, factors=factors)


def test_synth_spec_checks_its_sizes():
    catalog = abc_catalog()
    with pytest.raises(ValueError, match=exact("workload_count must be >= 1")):
        SynthSpec(0, 0, 5, catalog)
    with pytest.raises(ValueError, match=exact("samples_per_series must be >= 2")):
        SynthSpec(seed=0, workload_count=5, samples_per_series=1, catalog=catalog)


def test_len_and_in_keep_their_meaning():
    catalog = abc_catalog()
    assert len(catalog) == len(ABC_ENTRIES) == 3
    assert "lin.b.medium.r1" in catalog and "entries" not in catalog
    assert catalog.lookup("lin.b.medium.r1") == ABC_ENTRIES[1]
    fleet = Fleet(tuple(WorkloadProfile(f"w{i}", "lin.a.small.r1", 1.0, 2.0) for i in range(5)))
    assert len(fleet) == 5
