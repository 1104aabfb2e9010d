import math
import random

import pytest

from helpers import abc_catalog, model_for, one_workload_fleet, random_trial_model
from rightsizer import (
    AssignmentSolution,
    Catalog,
    Fleet,
    InstanceType,
    UtilizationPolicy,
    WorkloadProfile,
    build_model,
    export_ampl,
    feasible_set,
    load_policy,
    validate_solution,
)
from rightsizer.errors import (
    DuplicateKeyError,
    IndexOutOfRangeError,
    InvalidPolicyError,
    MalformedRowError,
    UnknownTypeError,
)


def test_feasibility_at_factor_one():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.0)
    # 1.5 ECU / 3.0 GiB fits 2/4, 4/8, and 8/16
    assert model.feasible == ((True, True, True),)


def test_feasibility_shrinks_at_one_point_five():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.5)
    # scaled demand 2.25 ECU / 4.5 GiB no longer fits the 2/4 column
    assert model.feasible == ((False, True, True),)


def test_factor_below_one_rejected():
    with pytest.raises(InvalidPolicyError):
        UtilizationPolicy.uniform(0.9)


@pytest.mark.parametrize("factor", [math.inf, math.nan])
def test_non_finite_factor_rejected(factor):
    with pytest.raises(InvalidPolicyError, match="not a finite number"):
        UtilizationPolicy.uniform(factor)
    with pytest.raises(InvalidPolicyError, match="not a finite number"):
        UtilizationPolicy(default=1.5, factors={"w1": factor})


def test_policy_snapshots_its_factors():
    factors = {"w1": 2.0}
    policy = UtilizationPolicy(1.5, factors)
    factors["w1"] = 0.5
    factors["w2"] = 3.0
    assert policy.delta_for("w1") == 2.0
    assert policy.delta_for("w2") == 1.5
    with pytest.raises(TypeError):
        policy.factors["w1"] = 0.5


def test_unknown_current_type_rejected():
    fleet = one_workload_fleet(current_type="lin.z.huge.r9")
    with pytest.raises(UnknownTypeError):
        build_model(fleet, abc_catalog(), UtilizationPolicy.uniform(1.0))


def test_exact_boundary_is_feasible():
    # scaled demand exactly equal to capacity is a legitimate assignment
    fleet = one_workload_fleet(cpu=2.0, mem=4.0)
    model = model_for(fleet, abc_catalog(), 1.0)
    assert model.feasible[0][0] is True


def test_feasibility_readers_agree_at_exact_capacity():
    # column 1 is 2 ECU / 4 GiB; rows sit exactly on it or one ulp above it
    fleet = Fleet((
        WorkloadProfile("exact", "lin.a.small.r1", 2.0, 4.0),
        WorkloadProfile("cpu_ulp", "lin.a.small.r1", math.nextafter(2.0, 3.0), 4.0),
        WorkloadProfile("mem_ulp", "lin.a.small.r1", 2.0, math.nextafter(4.0, 5.0)),
        WorkloadProfile("scaled", "lin.a.small.r1", 1.0, 2.0),  # x2 lands on 2 / 4
    ))
    model = build_model(fleet, abc_catalog(), UtilizationPolicy(1.0, {"scaled": 2.0}))
    assert model.feasible == (
        (True, True, True), (False, True, True), (False, True, True), (True, True, True))
    for j in range(model.column_count):
        refused = {v.row for v in validate_solution(
            model, AssignmentSolution({i: j + 1 for i in range(1, 5)}, 4 * model.catalog.entries[j].hourly_cost))}
        for i in range(model.row_count):
            in_set = j + 1 in feasible_set(model, i + 1)
            assert in_set == model.feasible[i][j] == (i + 1 not in refused)


def test_per_workload_factor_overrides_default():
    fleet = Fleet((
        WorkloadProfile("w1", "lin.a.small.r1", 1.5, 3.0),
        WorkloadProfile("w2", "lin.a.small.r1", 1.5, 3.0),
    ))
    policy = UtilizationPolicy(default=1.0, factors={"w2": 1.5})
    model = build_model(fleet, abc_catalog(), policy)
    assert model.feasible[0] == (True, True, True)
    assert model.feasible[1] == (False, True, True)


def test_feasible_set_examples():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.5)
    assert feasible_set(model, 1) == [2, 3]
    model = model_for(one_workload_fleet(), abc_catalog(), 1.0)
    assert feasible_set(model, 1) == [1, 2, 3]
    model = model_for(one_workload_fleet(cpu=9.0, mem=1.0), abc_catalog(), 1.0)
    assert feasible_set(model, 1) == []


def test_feasible_set_index_bounds():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.0)
    with pytest.raises(IndexOutOfRangeError):
        feasible_set(model, 0)
    with pytest.raises(IndexOutOfRangeError):
        feasible_set(model, 2)


def test_monotone_shrinkage():
    rng = random.Random(21)
    for _ in range(100):
        model = random_trial_model(rng)
        low = build_model(model.fleet, model.catalog, UtilizationPolicy.uniform(1.0))
        delta = round(rng.uniform(1.0, 4.0), 2)
        high = build_model(model.fleet, model.catalog, UtilizationPolicy.uniform(delta))
        for row_low, row_high in zip(low.feasible, high.feasible):
            for ok_low, ok_high in zip(row_low, row_high):
                assert not ok_high or ok_low


def test_dominant_column_always_feasible_at_factor_one():
    rng = random.Random(22)
    for _ in range(50):
        n = rng.randint(1, 4)
        entries = [
            InstanceType(f"os.f{j}.s.r", rng.uniform(1, 8), rng.uniform(1, 16), 0.1 * (j + 1))
            for j in range(n)
        ]
        # append a column with strictly maximal capacities on both axes
        entries.append(InstanceType(
            "os.max.s.r",
            max(e.cpu_capacity for e in entries) + 1.0,
            max(e.mem_capacity for e in entries) + 1.0,
            9.9))
        catalog = Catalog(tuple(entries))
        workloads = []
        for i in range(rng.randint(1, 5)):
            current = entries[rng.randrange(len(entries))]
            workloads.append(WorkloadProfile(
                f"w{i}", current.key,
                rng.uniform(0, current.cpu_capacity),
                rng.uniform(0, current.mem_capacity)))
        model = build_model(Fleet(tuple(workloads)), catalog, UtilizationPolicy.uniform(1.0))
        for row in model.feasible:
            assert row[-1]


# --- policy file ------------------------------------------------------------

def test_load_policy_overrides_and_default():
    policy = load_policy(b"workload_id,delta\nw2,2.5\n", default=1.5)
    assert policy.delta_for("w1") == 1.5
    assert policy.delta_for("w2") == 2.5


def test_load_policy_rejects_below_one():
    with pytest.raises(InvalidPolicyError):
        load_policy(b"workload_id,delta\nw1,0.5\n", default=1.5)


def test_load_policy_rejects_an_empty_workload_id():
    with pytest.raises(MalformedRowError) as exc:
        load_policy(b"workload_id,delta\nw1,2.0\n,2.0\n", default=1.5)
    assert str(exc.value) == "line 3: empty workload_id"


def test_load_policy_rejects_a_duplicate_factor():
    with pytest.raises(DuplicateKeyError) as exc:
        load_policy(b"workload_id,delta\nw1,2.0\nw1,3.0\n", default=1.5)
    assert str(exc.value) == "line 3: duplicate factor for 'w1'"


# --- AMPL export -------------------------------------------------------------

def test_export_contains_required_lines():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.5)
    exported = export_ampl(model)
    assert "minimize Total_Cost:" in exported.model_text
    assert "subject to Total{i in SERV}:" in exported.model_text
    assert "param d" in exported.model_text
    assert "subject to CPU{i in SERV, j in INST}:" in exported.model_text
    assert "subject to Memory{i in SERV, j in INST}:" in exported.model_text
    assert "var Trans {SERV,INST} >= 0, integer;" in exported.model_text


def test_export_single_member_sets():
    catalog = Catalog((InstanceType("lin.a.small.r1", 2.0, 4.0, 0.10),))
    model = model_for(one_workload_fleet(), catalog, 1.0)
    exported = export_ampl(model)
    assert "set SERV :=\n    'w1'\n;" in exported.data_text
    assert "set INST :=\n    'lin.a.small.r1'\n;" in exported.data_text


def test_export_data_carries_model_values():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.5)
    data = export_ampl(model).data_text
    assert "'w1' 1.5" in data          # cpu demand and factor both happen to be 1.5
    assert "'w1' 3.0" in data          # mem demand
    assert "param cost : 'lin.a.small.r1' 'lin.b.medium.r1' 'lin.c.large.r1' :=" in data
    assert "'w1' 0.1 0.2 0.4" in data


def test_export_cost_block_golden():
    fleet = Fleet((
        WorkloadProfile("w1", "lin.a.small.r1", 1.5, 3.0),
        WorkloadProfile("w2", "lin.b.medium.r1", 3.0, 6.0),
    ))
    data = export_ampl(model_for(fleet, abc_catalog(), 1.5)).data_text
    assert data.endswith(
        ";\n\n"
        "param cost : 'lin.a.small.r1' 'lin.b.medium.r1' 'lin.c.large.r1' :=\n"
        "    'w1' 0.1 0.2 0.4\n"
        "    'w2' 0.1 0.2 0.4\n"
        ";\n")


def test_export_doubles_embedded_quotes():
    catalog = Catalog((InstanceType("lin.o'neil.r1", 2.0, 4.0, 0.10),))
    fleet = Fleet((WorkloadProfile("o'brien", "lin.o'neil.r1", 1.5, 3.0),))
    data = export_ampl(model_for(fleet, catalog, 1.0)).data_text
    assert "set SERV :=\n    'o''brien'\n;" in data
    assert "set INST :=\n    'lin.o''neil.r1'\n;" in data
    assert "param cost : 'lin.o''neil.r1' :=\n    'o''brien' 0.1\n;" in data
    assert "'o'brien'" not in data


def test_export_is_deterministic():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.5)
    first = export_ampl(model)
    second = export_ampl(model)
    assert first.model_text.encode() == second.model_text.encode()
    assert first.data_text.encode() == second.data_text.encode()


def test_export_uses_lf_only():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.5)
    exported = export_ampl(model)
    assert "\r" not in exported.model_text
    assert "\r" not in exported.data_text
