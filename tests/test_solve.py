import itertools
import math
import random

import pytest

from helpers import abc_catalog, model_for, one_workload_fleet, random_trial_model
from rightsizer import (
    AssignmentSolution,
    Catalog,
    Fleet,
    Infeasible,
    InstanceType,
    UtilizationPolicy,
    Violation,
    WorkloadProfile,
    build_model,
    solve_bruteforce,
    solve_exact,
    solve_sweep,
    validate_solution,
)
from rightsizer.errors import BudgetExceededError, RowMismatchError
from rightsizer.solve import assigned_types


def enumerate_best_total(model):
    """Reference enumeration, written independently of the package's solvers."""
    best = None
    n = model.column_count
    for combo in itertools.product(range(n), repeat=model.row_count):
        if all(model.feasible[i][j] for i, j in enumerate(combo)):
            total = sum(model.catalog.entries[j].hourly_cost for j in combo)
            if best is None or total < best:
                best = total
    return best


def test_cheapest_feasible_column_wins():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.0)
    solution = solve_exact(model)
    assert solution.columns == (1,)
    assert solution.total_hourly_cost == pytest.approx(0.10)
    assert solution.total_hourly_cost == pytest.approx(enumerate_best_total(model))


def test_factor_pushes_to_next_size():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.5)
    solution = solve_exact(model)
    assert solution.columns == (2,)
    assert solution.total_hourly_cost == pytest.approx(0.20)
    assert solution.total_hourly_cost == pytest.approx(enumerate_best_total(model))


def test_oversized_workload_is_infeasible():
    model = model_for(one_workload_fleet(cpu=9.0, mem=1.0), abc_catalog(), 1.0)
    result = solve_exact(model)
    assert isinstance(result, Infeasible)
    assert [r.workload_id for r in result.rows] == ["w1"]
    assert result.rows[0].cpu_required == pytest.approx(9.0)
    assert enumerate_best_total(model) is None


def test_tie_break_prefers_smaller_capacity_then_key():
    entries = (
        InstanceType("os.b.big.r", 8.0, 16.0, 0.10),
        InstanceType("os.a.small.r", 4.0, 8.0, 0.10),   # same cost, smaller capacity
        InstanceType("os.c.small.r", 4.0, 8.0, 0.10),   # identical but later key
    )
    fleet = one_workload_fleet(cpu=1.0, mem=2.0, current_type="os.b.big.r")
    model = model_for(fleet, Catalog(entries), 1.0)
    for solver in (solve_exact, solve_bruteforce):
        assert solver(model).columns == (2,)


@pytest.mark.parametrize("twin, winner", [
    (InstanceType("lin.z.big.r1", 4.0, 8.0, 0.20), "lin.m.big.r1"),  # dearer: the cheaper big hides it
    (InstanceType("lin.z.big.r1", 4.0, 8.0, 0.10), "lin.m.big.r1"),  # same capacities and price, larger key
    (InstanceType("lin.c.big.r1", 4.0, 8.0, 0.10), "lin.c.big.r1"),  # same capacities and price, smaller key
])
def test_first_fit_across_dominated_columns_at_every_factor(twin, winner):
    # the small column is dominated, but only by dearer columns, so it stays reachable
    catalog = Catalog((InstanceType("lin.m.big.r1", 4.0, 8.0, 0.10), twin,
                       InstanceType("lin.a.small.r1", 1.0, 2.0, 0.05)))
    fleet = one_workload_fleet(cpu=0.9, mem=1.8, current_type="lin.a.small.r1")
    factors = [1.0 + 0.25 * k for k in range(17)]  # 1.0 .. 5.0
    chosen = []
    for factor, result in zip(factors, solve_sweep(model_for(fleet, catalog, 1.0), factors)):
        assert result == solve_bruteforce(model_for(fleet, catalog, factor))
        chosen.append(None if isinstance(result, Infeasible)
                      else catalog.entries[result.columns[0] - 1].key)
    # 0.9 x 1.0 fits the small column; 0.9 x 1.25 .. 4.25 fits only a big one; 0.9 x 4.5 fits none
    assert chosen == ["lin.a.small.r1"] + [winner] * 13 + [None] * 3


def test_sweep_starts_every_row_afresh_after_a_nan_factor():
    fleet = Fleet((WorkloadProfile("w1", "lin.a.small.r1", 1.5, 3.0),
                   WorkloadProfile("w2", "lin.a.small.r1", 0.5, 1.0)))
    catalog = abc_catalog()
    cases = list(solve_sweep(model_for(fleet, catalog, 1.0), [1.0, math.nan, 1.5, 2.0]))
    # NaN demands fit no column, so every row's scan ran off the end at the NaN factor
    assert isinstance(cases[1], Infeasible)
    assert [(r.row, r.workload_id) for r in cases[1].rows] == [(1, "w1"), (2, "w2")]
    assert all(math.isnan(r.cpu_required) and math.isnan(r.mem_required) for r in cases[1].rows)
    assert [cases[0], *cases[2:]] == [solve_exact(model_for(fleet, catalog, f)) for f in (1.0, 1.5, 2.0)]


def test_sweep_starts_every_row_afresh_after_a_factor_that_is_not_positive():
    # a zero demand times -inf is NaN, which fits no column, and times 1 fits the cheapest one
    model = model_for(one_workload_fleet(cpu=0.0, mem=0.0), abc_catalog(), 1.0)
    first, second = solve_sweep(model, [-math.inf, 1.0])
    assert [r.workload_id for r in first.rows] == ["w1"]
    assert second == solve_exact(model) == AssignmentSolution((1,), 0.10)


def test_sweep_over_no_factors_yields_nothing():
    assert list(solve_sweep(model_for(one_workload_fleet(), abc_catalog(), 1.0), [])) == []


def test_bruteforce_two_rows():
    fleet = Fleet((
        WorkloadProfile("w1", "lin.a.small.r1", 0.5, 1.0),
        WorkloadProfile("w2", "lin.a.small.r1", 0.5, 1.0),
    ))
    model = model_for(fleet, abc_catalog(), 1.0)
    solution = solve_bruteforce(model)
    assert solution.columns == (1, 1)
    assert solution.total_hourly_cost == pytest.approx(0.20)


def test_bruteforce_single_cell():
    catalog = Catalog((InstanceType("lin.a.small.r1", 2.0, 4.0, 0.10),))
    model = model_for(one_workload_fleet(), catalog, 1.0)
    assert solve_bruteforce(model).columns == (1,)


def test_bruteforce_budget_exceeded():
    # 6 columns and 8 rows: 6^8 = 1,679,616 candidates > 10^6
    entries = tuple(
        InstanceType(f"os.f{j}.s.r", 4.0, 8.0, 0.1 * (j + 1)) for j in range(6))
    fleet = Fleet(tuple(
        WorkloadProfile(f"w{i}", "os.f0.s.r", 1.0, 2.0) for i in range(8)))
    model = model_for(fleet, Catalog(entries), 1.0)
    with pytest.raises(BudgetExceededError):
        solve_bruteforce(model)
    assert solve_exact(model).total_hourly_cost == pytest.approx(0.8)


def test_validate_clean_solution():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.5)
    assert validate_solution(model, solve_exact(model)) == []


def test_validate_flags_capacity_violation():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.5)
    bad = AssignmentSolution((1,), 0.10)  # column 1 is infeasible at this factor
    kinds = [v.kind for v in validate_solution(model, bad)]
    assert kinds == ["CapacityViolation"]


def test_validate_flags_cost_mismatch():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.5)
    bad = AssignmentSolution((2,), 0.30)
    kinds = [v.kind for v in validate_solution(model, bad)]
    assert kinds == ["CostMismatch"]


def test_validate_flags_missing_row():
    fleet = Fleet((
        WorkloadProfile("w1", "lin.a.small.r1", 0.5, 1.0),
        WorkloadProfile("w2", "lin.a.small.r1", 0.5, 1.0),
    ))
    model = model_for(fleet, abc_catalog(), 1.0)
    assert validate_solution(model, AssignmentSolution((1,), 0.10)) == [
        Violation("CoverageViolation", None, "solution assigns rows 1..1, fleet has rows 1..2")]


@pytest.mark.parametrize("columns, faults", [
    ((1, 1, 1), [(None, "solution assigns rows 1..3, fleet has rows 1..2")]),
    ((1, 4), [(2, "row 2 is assigned column 4, catalog has columns 1..3")]),
    ((1, 0), [(2, "row 2 is assigned column 0, catalog has columns 1..3")]),
    ((-1, 1, 4), [(None, "solution assigns rows 1..3, fleet has rows 1..2"),
                  (1, "row 1 is assigned column -1, catalog has columns 1..3"),
                  (3, "row 3 is assigned column 4, catalog has columns 1..3")]),
    ((1, 1.5), [(2, "row 2 is assigned column 1.5, catalog has columns 1..3")]),
    ((True, 1), [(1, "row 1 is assigned column True, catalog has columns 1..3")]),
], ids=["row-count", "column-after", "column-0", "row-count-then-columns", "column-float", "column-bool"])
def test_validate_flags_a_pair_outside_the_matrix(columns, faults):
    fleet = Fleet((
        WorkloadProfile("w1", "lin.a.small.r1", 0.5, 1.0),
        WorkloadProfile("w2", "lin.a.small.r1", 0.5, 1.0),
    ))
    model = model_for(fleet, abc_catalog(), 1.0)
    assert validate_solution(model, AssignmentSolution(columns, 0.2)) == [
        Violation("CoverageViolation", row, detail) for row, detail in faults]


def test_assigned_types_reads_each_row_at_its_place():
    catalog = abc_catalog()
    expected = [catalog.entries[2], catalog.entries[0], catalog.entries[1]]
    assert assigned_types(AssignmentSolution((3, 1, 2), 0.7), catalog, 3) == expected
    # the first fault in row order is named
    with pytest.raises(RowMismatchError, match="^row 1 is assigned column 4, catalog has columns 1..3$"):
        assigned_types(AssignmentSolution((4, 1, 0), 0.7), catalog, 3)


@pytest.mark.parametrize("column", [1.5, True], ids=["float", "bool"])
def test_assigned_types_refuses_a_column_that_is_not_an_int(column):
    with pytest.raises(RowMismatchError, match=f"^row 1 is assigned column {column}, catalog has columns 1..3$"):
        assigned_types(AssignmentSolution((column,), 0.1), abc_catalog(), 1)


# --- properties ---------------------------------------------------------------

def test_exact_matches_bruteforce_on_random_models():
    rng = random.Random(31)
    for _ in range(200):
        model = random_trial_model(rng)
        exact = solve_exact(model)
        brute = solve_bruteforce(model)
        assert exact == brute


def test_total_cost_monotone_in_factor():
    rng = random.Random(32)
    for _ in range(100):
        base = random_trial_model(rng)
        lo = round(rng.uniform(1.0, 2.0), 2)
        hi = round(lo + rng.uniform(0.0, 2.0), 2)
        sol_lo = solve_exact(build_model(base.fleet, base.catalog, UtilizationPolicy.uniform(lo)))
        sol_hi = solve_exact(build_model(base.fleet, base.catalog, UtilizationPolicy.uniform(hi)))
        if isinstance(sol_lo, Infeasible) or isinstance(sol_hi, Infeasible):
            continue
        assert sol_lo.total_hourly_cost <= sol_hi.total_hourly_cost


def test_assignment_invariant_under_uniform_price_shift():
    rng = random.Random(33)
    for _ in range(100):
        model = random_trial_model(rng)
        shift = round(rng.uniform(0.1, 5.0), 2)
        shifted_entries = tuple(
            InstanceType(e.key, e.cpu_capacity, e.mem_capacity, e.hourly_cost + shift)
            for e in model.catalog.entries)
        shifted = build_model(model.fleet, Catalog(shifted_entries), model.policy)
        before = solve_exact(model)
        after = solve_exact(shifted)
        if isinstance(before, Infeasible):
            assert after == before
        else:
            assert after.columns == before.columns


def test_extra_column_never_hurts():
    rng = random.Random(34)
    for _ in range(100):
        model = random_trial_model(rng)
        before = solve_exact(model)
        if isinstance(before, Infeasible):
            continue
        extra = InstanceType(
            "os.extra.s.r",
            round(rng.uniform(0.5, 20.0), 2),
            round(rng.uniform(0.5, 40.0), 2),
            round(rng.uniform(0.01, 1.0), 3))
        bigger = Catalog(model.catalog.entries + (extra,))
        after = solve_exact(build_model(model.fleet, bigger, model.policy))
        assert after.total_hourly_cost <= before.total_hourly_cost + 1e-12
