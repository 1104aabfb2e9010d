"""Optimal workload-to-type assignment, plus a brute-force verification oracle.

Every capacity constraint couples a cell only to its own row and the
one-type-per-row constraint is per-row too, so the global cost minimum
decomposes into independent per-row choices. `solve_exact` exploits that;
`solve_bruteforce` deliberately does not and enumerates candidate
assignments wholesale, which makes it a usable oracle for the exact path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .catalog import Catalog
from .errors import BudgetExceededError
from .model import AssignmentModel

DEFAULT_BRUTEFORCE_BUDGET = 1_000_000
COST_ABS_TOLERANCE = 1e-9


@dataclass(frozen=True)
class AssignmentSolution:
    """Chosen column per row (both 1-based) and the summed hourly cost."""

    assignment: dict[int, int]
    total_hourly_cost: float


@dataclass(frozen=True)
class InfeasibleRow:
    """A workload no catalog column can host, with its scaled demands."""

    row: int
    workload_id: str
    cpu_required: float  # demand times utilization factor, ECU
    mem_required: float  # demand times utilization factor, GiB


@dataclass(frozen=True)
class Infeasible:
    rows: tuple[InfeasibleRow, ...]


@dataclass(frozen=True)
class Violation:
    """One failed post-hoc check; kind is CoverageViolation, CapacityViolation, or CostMismatch."""

    kind: str
    row: int | None
    detail: str


def _column_order(catalog: Catalog) -> tuple[tuple[float, float, float, str], ...]:
    # Shared tie-break: cheapest cost, then smaller CPU, smaller memory, smaller key.
    return tuple((e.hourly_cost, e.cpu_capacity, e.mem_capacity, e.key) for e in catalog.entries)


def _infeasible_rows(model: AssignmentModel) -> list[InfeasibleRow]:
    rows = []
    for i, w in enumerate(model.fleet.workloads):
        if not any(model.fits(i, j) for j in range(model.column_count)):
            rows.append(InfeasibleRow(i + 1, w.id, model.scaled_cpu[i], model.scaled_mem[i]))
    return rows


def solve_exact(model: AssignmentModel) -> AssignmentSolution | Infeasible:
    """Pick the cheapest feasible column for every row independently.

    Row-separability makes the per-row argmin the global optimum. Each row
    takes the first column that fits in the shared tie-break order, which
    is a strict order because catalog keys are unique. When any row has no
    feasible column the result is Infeasible, listing every such row.
    """
    by_preference = sorted(range(model.column_count), key=_column_order(model.catalog).__getitem__)
    assignment: dict[int, int] = {}
    missing: list[InfeasibleRow] = []
    total = 0.0  # summed in row order, as solve_bruteforce does
    for i, w in enumerate(model.fleet.workloads):
        best = next((j for j in by_preference if model.fits(i, j)), None)
        if best is None:
            missing.append(InfeasibleRow(i + 1, w.id, model.scaled_cpu[i], model.scaled_mem[i]))
        else:
            assignment[i + 1] = best + 1
            total += model.cost[best]
    if missing:
        return Infeasible(tuple(missing))
    return AssignmentSolution(assignment, total)


def solve_bruteforce(model: AssignmentModel,
                     budget: int = DEFAULT_BRUTEFORCE_BUDGET) -> AssignmentSolution | Infeasible:
    """Enumerate every column choice per row and keep the best feasible one.

    Raises BudgetExceededError when N^M candidate assignments exceed the
    budget. Ties are broken by comparing the per-row column order tuples in
    row order, which matches solve_exact's choice.
    """
    m, n = model.row_count, model.column_count
    candidates = n ** m
    if candidates > budget:
        raise BudgetExceededError(f"{n}^{m} = {candidates} candidate assignments exceed budget {budget}")
    feasible = model.feasible
    cost = model.cost
    order = _column_order(model.catalog)

    best_total: float | None = None
    best_combo: tuple[int, ...] | None = None
    best_order: tuple | None = None
    for combo in itertools.product(range(n), repeat=m):
        total = 0.0
        for i in range(m):
            j = combo[i]
            if not feasible[i][j]:
                break
            total += cost[j]
        else:
            if best_total is None or total < best_total:
                best_total, best_combo, best_order = total, combo, None
            elif total == best_total:
                candidate_order = tuple(order[j] for j in combo)
                if best_order is None:
                    best_order = tuple(order[j] for j in best_combo)
                if candidate_order < best_order:
                    best_combo, best_order = combo, candidate_order
    if best_combo is None:
        return Infeasible(tuple(_infeasible_rows(model)))
    return AssignmentSolution({i + 1: j + 1 for i, j in enumerate(best_combo)}, best_total)


def validate_solution(model: AssignmentModel, solution: AssignmentSolution) -> list[Violation]:
    """Re-check coverage, capacity feasibility, and the reported total.

    Returns an empty list exactly when every row is assigned one in-range
    column, every assigned cell is feasible, and the reported total matches a
    recomputed total within 1e-9 absolute. Violations are data, not errors.
    """
    violations: list[Violation] = []
    m, n = model.row_count, model.column_count
    for i in range(1, m + 1):
        if i not in solution.assignment:
            violations.append(Violation("CoverageViolation", i, f"row {i} has no assigned column"))
    coverage_ok = not violations
    recomputed = 0.0
    for i in sorted(solution.assignment):
        j = solution.assignment[i]
        if not 1 <= i <= m or not 1 <= j <= n:
            violations.append(Violation(
                "CoverageViolation", i, f"assignment ({i}, {j}) outside the {m}x{n} matrix"))
            coverage_ok = False
            continue
        if not model.fits(i - 1, j - 1):
            w = model.fleet.workloads[i - 1]
            e = model.catalog.entries[j - 1]
            violations.append(Violation(
                "CapacityViolation", i,
                f"{w.id!r} needs {model.scaled_cpu[i - 1]:.6g} ECU / {model.scaled_mem[i - 1]:.6g} GiB "
                f"but {e.key!r} supplies {e.cpu_capacity:.6g} / {e.mem_capacity:.6g}"))
        recomputed += model.cost[j - 1]
    if coverage_ok and abs(recomputed - solution.total_hourly_cost) > COST_ABS_TOLERANCE:
        violations.append(Violation(
            "CostMismatch", None,
            f"reported {solution.total_hourly_cost!r}, recomputed {recomputed!r}"))
    return violations
