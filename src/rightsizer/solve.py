"""Optimal workload-to-type assignment, plus a brute-force verification oracle.

Every capacity constraint couples a cell only to its own row and the
one-type-per-row constraint is per-row too, so the global cost minimum
decomposes into independent per-row choices. `solve_ascending` exploits
that for a sequence of models (a sweep), carrying each row's place in the
column order from one model to the next; `solve_exact` is the same path
for one model. `solve_bruteforce` deliberately does not and enumerates
candidate assignments wholesale, which makes it a usable oracle for both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .catalog import Catalog, InstanceType
from .errors import BudgetExceededError, RowMismatchError
from .model import AssignmentModel

DEFAULT_BRUTEFORCE_BUDGET = 1_000_000


@dataclass(frozen=True)
class AssignmentSolution:
    """Chosen column per row (both 1-based) and the hourly cost, summed with math.fsum."""

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


def _coverage_faults(assignment: Mapping[int, int], rows: int, columns: int) -> Iterator[tuple[int, str]]:
    # The coverage rule: every row of 1..rows takes one column of 1..columns.
    # Yields (row, detail) for each row without a column and each pair
    # outside rows x columns, in row order.
    for i in sorted(assignment.keys() | range(1, rows + 1)):
        j = assignment.get(i)
        if j is None:
            yield i, f"row {i} has no assigned column"
        elif not 1 <= i <= rows:
            yield i, f"row {i} is assigned column {j}, fleet has rows 1..{rows}"
        elif not 1 <= j <= columns:
            yield i, f"row {i} is assigned column {j}, catalog has columns 1..{columns}"


def assigned_types(solution: AssignmentSolution, catalog: Catalog, rows: int) -> list[InstanceType]:
    """The catalog entry each of rows 1..rows is assigned, in row order.

    Raises RowMismatchError naming the first row at fault when the solution
    does not assign exactly the rows 1..rows, or assigns a column outside
    the catalog; `validate_solution` reports the same faults as data.
    """
    for _, detail in _coverage_faults(solution.assignment, rows, len(catalog.entries)):
        raise RowMismatchError(detail)
    return [catalog.entries[solution.assignment[i] - 1] for i in range(1, rows + 1)]


def _column_order(catalog: Catalog) -> tuple[tuple[float, float, float, str], ...]:
    # Shared tie-break: cheapest cost, then smaller CPU, smaller memory, smaller key.
    return tuple((e.hourly_cost, e.cpu_capacity, e.mem_capacity, e.key) for e in catalog.entries)


def solve_ascending(models: Iterable[AssignmentModel]) -> Iterator[AssignmentSolution | Infeasible]:
    """Solve each model in turn; yield for each exactly what solving it alone gives.

    Row-separability makes the per-row argmin the global optimum. Each row
    takes the first column that fits in the shared tie-break order, which
    is a strict order because catalog keys are unique. When any row has no
    feasible column the result is Infeasible, listing every such row.

    A row resumes its scan at the column it took in the previous model: a
    column refused at some demand is refused at any larger one. A row whose
    scaled cpu or mem went down, and every row after a change of catalog or
    fleet size, scans from the cheapest column again. So factors that only
    grow, as in a sweep, cost each row one pass over the columns in all.
    """
    catalog, start = None, []
    for model in models:
        cpu, mem = model.scaled_cpu, model.scaled_mem
        if model.catalog is not catalog or model.row_count != len(start):
            catalog = model.catalog
            by_preference = sorted(range(model.column_count), key=_column_order(catalog).__getitem__)
            n = len(by_preference)
            start = [0] * model.row_count
            last_cpu, last_mem = cpu, mem
        assignment: dict[int, int] = {}
        missing: list[InfeasibleRow] = []
        for i, w in enumerate(model.fleet.workloads):
            k = start[i] if cpu[i] >= last_cpu[i] and mem[i] >= last_mem[i] else 0
            while k < n and not model.fits(i, by_preference[k]):
                k += 1
            start[i] = k
            if k == n:
                missing.append(InfeasibleRow(i + 1, w.id, cpu[i], mem[i]))
            else:
                assignment[i + 1] = by_preference[k] + 1
        last_cpu, last_mem = cpu, mem
        if missing:
            yield Infeasible(tuple(missing))
        else:
            total = math.fsum(catalog.entries[j - 1].hourly_cost for j in assignment.values())
            yield AssignmentSolution(assignment, total)


def solve_exact(model: AssignmentModel) -> AssignmentSolution | Infeasible:
    """Pick the cheapest feasible column for every row independently.

    The one-model case of `solve_ascending`; see there for the rule.
    """
    return next(solve_ascending([model]))


def solve_bruteforce(model: AssignmentModel,
                     budget: int = DEFAULT_BRUTEFORCE_BUDGET) -> AssignmentSolution | Infeasible:
    """Enumerate every combination of fitting columns and keep the best one.

    Raises BudgetExceededError when N^M candidate assignments exceed the
    budget. The best is the least by (total, per-row column order tuples in
    row order), so the enumeration order cannot change it, and the tie-break
    matches the per-row first fit of solve_ascending.
    """
    m, n = model.row_count, model.column_count
    candidates = n ** m
    if candidates > budget:
        raise BudgetExceededError(f"{n}^{m} = {candidates} candidate assignments exceed budget {budget}")
    allowed = [[j for j in range(n) if model.fits(i, j)] for i in range(m)]
    missing = [InfeasibleRow(i + 1, w.id, model.scaled_cpu[i], model.scaled_mem[i])
               for i, w in enumerate(model.fleet.workloads) if not allowed[i]]
    if missing:
        return Infeasible(tuple(missing))
    price = [e.hourly_cost for e in model.catalog.entries]
    order = _column_order(model.catalog)
    best = min(itertools.product(*allowed),
               key=lambda combo: (math.fsum(price[j] for j in combo), tuple(order[j] for j in combo)))
    return AssignmentSolution({i + 1: j + 1 for i, j in enumerate(best)}, math.fsum(price[j] for j in best))


def validate_solution(model: AssignmentModel, solution: AssignmentSolution) -> list[Violation]:
    """Re-check coverage, capacity feasibility, and the reported total.

    Returns an empty list exactly when every row is assigned one in-range
    column, every assigned cell is feasible, and the reported total equals the
    math.fsum of the assigned costs. Violations are data, not errors.
    """
    violations = [Violation("CoverageViolation", i, detail)
                  for i, detail in _coverage_faults(solution.assignment, model.row_count, model.column_count)]
    faulty = {v.row for v in violations}
    for i, j in sorted(solution.assignment.items()):
        if i not in faulty and not model.fits(i - 1, j - 1):
            w = model.fleet.workloads[i - 1]
            e = model.catalog.entries[j - 1]
            violations.append(Violation(
                "CapacityViolation", i,
                f"{w.id!r} needs {model.scaled_cpu[i - 1]:.6g} ECU / {model.scaled_mem[i - 1]:.6g} GiB "
                f"but {e.key!r} supplies {e.cpu_capacity:.6g} / {e.mem_capacity:.6g}"))
    if not faulty:
        recomputed = math.fsum(e.hourly_cost for e in assigned_types(solution, model.catalog, model.row_count))
        if recomputed != solution.total_hourly_cost:
            violations.append(Violation(
                "CostMismatch", None,
                f"reported {solution.total_hourly_cost!r}, recomputed {recomputed!r}"))
    return violations
