import itertools
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
    solve_ascending,
    solve_bruteforce,
    solve_exact,
    validate_solution,
)
from rightsizer.errors import BudgetExceededError


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
    assert solution.assignment == {1: 1}
    assert solution.total_hourly_cost == pytest.approx(0.10)
    assert solution.total_hourly_cost == pytest.approx(enumerate_best_total(model))


def test_factor_pushes_to_next_size():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.5)
    solution = solve_exact(model)
    assert solution.assignment == {1: 2}
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
        assert solver(model).assignment == {1: 2}


def test_bruteforce_two_rows():
    fleet = Fleet((
        WorkloadProfile("w1", "lin.a.small.r1", 0.5, 1.0),
        WorkloadProfile("w2", "lin.a.small.r1", 0.5, 1.0),
    ))
    model = model_for(fleet, abc_catalog(), 1.0)
    solution = solve_bruteforce(model)
    assert solution.assignment == {1: 1, 2: 1}
    assert solution.total_hourly_cost == pytest.approx(0.20)


def test_bruteforce_single_cell():
    catalog = Catalog((InstanceType("lin.a.small.r1", 2.0, 4.0, 0.10),))
    model = model_for(one_workload_fleet(), catalog, 1.0)
    assert solve_bruteforce(model).assignment == {1: 1}


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
    bad = AssignmentSolution({1: 1}, 0.10)  # column 1 is infeasible at this factor
    kinds = [v.kind for v in validate_solution(model, bad)]
    assert kinds == ["CapacityViolation"]


def test_validate_flags_cost_mismatch():
    model = model_for(one_workload_fleet(), abc_catalog(), 1.5)
    bad = AssignmentSolution({1: 2}, 0.30)
    kinds = [v.kind for v in validate_solution(model, bad)]
    assert kinds == ["CostMismatch"]


def test_validate_flags_missing_row():
    fleet = Fleet((
        WorkloadProfile("w1", "lin.a.small.r1", 0.5, 1.0),
        WorkloadProfile("w2", "lin.a.small.r1", 0.5, 1.0),
    ))
    model = model_for(fleet, abc_catalog(), 1.0)
    bad = AssignmentSolution({1: 1}, 0.10)
    kinds = [v.kind for v in validate_solution(model, bad)]
    assert "CoverageViolation" in kinds


@pytest.mark.parametrize("assignment, row, detail", [
    ({1: 1, 2: 1, 3: 1}, 3, "row 3 is assigned column 1, fleet has rows 1..2"),
    ({0: 1, 1: 1, 2: 1}, 0, "row 0 is assigned column 1, fleet has rows 1..2"),
    ({1: 1, 2: 4}, 2, "row 2 is assigned column 4, catalog has columns 1..3"),
    ({1: 1, 2: 0}, 2, "row 2 is assigned column 0, catalog has columns 1..3"),
], ids=["row-after", "row-0", "column-after", "column-0"])
def test_validate_flags_a_pair_outside_the_matrix(assignment, row, detail):
    fleet = Fleet((
        WorkloadProfile("w1", "lin.a.small.r1", 0.5, 1.0),
        WorkloadProfile("w2", "lin.a.small.r1", 0.5, 1.0),
    ))
    model = model_for(fleet, abc_catalog(), 1.0)
    assert validate_solution(model, AssignmentSolution(assignment, 0.2)) == [
        Violation("CoverageViolation", row, detail)]


# --- properties ---------------------------------------------------------------

def test_exact_matches_bruteforce_on_random_models():
    rng = random.Random(31)
    for _ in range(200):
        model = random_trial_model(rng)
        exact = solve_exact(model)
        brute = solve_bruteforce(model)
        assert exact == brute


def test_ascending_solve_starts_over_on_another_catalog_or_fleet_size():
    # consecutive random models rarely share a catalog, and often share a row count
    rng = random.Random(35)
    models = [random_trial_model(rng) for _ in range(200)]
    assert list(solve_ascending(models)) == [solve_bruteforce(m) for m in models]


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
            assert after.assignment == before.assignment


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
