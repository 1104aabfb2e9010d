"""Optimal workload-to-type assignment, plus a brute-force verification oracle.

Every capacity constraint couples a cell only to its own row and the
one-type-per-row constraint is per-row too, so the global cost minimum
decomposes into independent per-row choices. `solve_sweep` solves one
model under a sequence of factors, carrying each row's place in the column
order from one factor to the next; `solve_exact` is its one-factor case.
It scans only the undominated columns: a column with no more CPU and no
more memory than one earlier in the preference order is never a first fit.
`solve_bruteforce` deliberately does none of this and enumerates candidate
assignments over `fits` wholesale, which makes it a usable oracle for both.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, NamedTuple

from .catalog import Catalog, InstanceType
from .errors import BudgetExceededError, RowMismatchError
from .model import AssignmentModel

DEFAULT_BRUTEFORCE_BUDGET = 1_000_000


class AssignmentSolution(NamedTuple):
    """Row i's chosen 1-based catalog column at columns[i - 1], and the hourly cost by math.fsum."""

    columns: tuple[int, ...]
    total_hourly_cost: float


class InfeasibleRow(NamedTuple):
    """A workload no catalog column can host, with its scaled demands."""

    row: int
    workload_id: str
    cpu_required: float  # demand times utilization factor, ECU
    mem_required: float  # demand times utilization factor, GiB


class Infeasible(NamedTuple):
    rows: tuple[InfeasibleRow, ...]


class Violation(NamedTuple):
    """One failed post-hoc check; kind is CoverageViolation, CapacityViolation, or CostMismatch."""

    kind: str
    row: int | None
    detail: str


def _coverage_faults(columns: tuple[int, ...], rows: int, n: int) -> Iterator[tuple[int | None, str]]:
    # The coverage rule: one column of 1..n for each of the rows 1..rows.
    # Yields (row, detail) for a row count other than rows (with row None),
    # then for each column outside 1..n, in row order. A column that is not
    # an int is outside, and so is a bool, which would index as 0 or 1.
    if len(columns) != rows:
        yield None, f"solution assigns rows 1..{len(columns)}, fleet has rows 1..{rows}"
    for i, j in enumerate(columns, 1):
        if not isinstance(j, int) or isinstance(j, bool) or not 1 <= j <= n:
            yield i, f"row {i} is assigned column {j}, catalog has columns 1..{n}"


def assigned_types(solution: AssignmentSolution, catalog: Catalog, rows: int) -> list[InstanceType]:
    """The catalog entry of each of rows 1..rows, in row order; RowMismatchError names
    the first fault, which `validate_solution` reports as a CoverageViolation."""
    entries = catalog.entries
    for _, detail in _coverage_faults(solution.columns, rows, len(entries)):
        raise RowMismatchError(detail)
    return [entries[j - 1] for j in solution.columns]


def _column_order(catalog: Catalog) -> tuple[tuple[float, float, float, str], ...]:
    # Shared tie-break: cheapest cost, then smaller CPU, smaller memory, smaller key.
    return tuple((e.hourly_cost, e.cpu_capacity, e.mem_capacity, e.key) for e in catalog.entries)


def _staircase(catalog: Catalog) -> tuple[tuple[int, ...], tuple[float, ...],
                                          tuple[float, ...], tuple[float, ...]]:
    # The undominated columns in preference order, as four parallel tuples:
    # 1-based catalog column numbers, CPU, memory and price. A column is
    # dropped when an earlier kept column has at least its CPU and its memory.
    # Any demand that fits it fits that column too, which comes first, so it
    # is never a first fit. An earlier dropped column is dominated by an
    # earlier kept one, so checking the kept ones is enough, and of those only
    # the maximal ones (`frontier`).
    order = _column_order(catalog)
    kept: list[int] = []
    frontier: list[tuple[float, float]] = []
    for j in sorted(range(len(order)), key=order.__getitem__):
        _, c, m, _ = order[j]
        if any(c <= fc and m <= fm for fc, fm in frontier):
            continue
        kept.append(j)
        frontier = [(fc, fm) for fc, fm in frontier if not (fc <= c and fm <= m)]
        frontier.append((c, m))
    price, cpu, mem, _ = zip(*(order[j] for j in kept))
    return tuple(j + 1 for j in kept), cpu, mem, price


def solve_sweep(model: AssignmentModel, factors: Iterable[float]) -> Iterator[AssignmentSolution | Infeasible]:
    """For each factor in turn, solve `model` with every scaled demand times that factor.

    Each result is exactly what `solve_exact` gives on the model whose
    scaled demands are `scaled * factor`, one float product each. Each row
    takes the first column that fits in the shared tie-break order, a strict
    order because catalog keys are unique; row-separability makes that the
    global optimum. When any row fits no column the result is Infeasible,
    listing every such row.

    The scan skips dominated columns: a column with no more CPU and no more
    memory than an earlier one in that order is never a first fit. It tests
    the kept ones with the same `<=` as `AssignmentModel.fits`.

    A row resumes its scan where the previous factor left it. No scaled
    demand is negative (`Fleet` refuses a negative demand, and a policy a
    factor below 1), so when `0 < previous <= factor` no demand went down,
    and a column refused at some demand is refused at any larger one. Any
    other factor, NaN included, starts every row at the cheapest column.
    """
    columns, cap_cpu, cap_mem, price = _staircase(model.catalog)
    n = len(columns)
    rows = tuple(zip(model.fleet.workloads, model.scaled_cpu, model.scaled_mem))
    previous = math.nan  # compares false, so the first factor starts every row afresh
    for factor in factors:
        if not 0 < previous <= factor:
            start = [0] * len(rows)
        previous = factor
        missing: list[InfeasibleRow] = []
        for i, (w, cpu, mem) in enumerate(rows):
            c, m = cpu * factor, mem * factor
            k = start[i]
            while k < n and not (c <= cap_cpu[k] and m <= cap_mem[k]):
                k += 1
            start[i] = k
            if k == n:
                missing.append(InfeasibleRow(i + 1, w.id, c, m))
        if missing:
            yield Infeasible(tuple(missing))
        else:
            # start[i] is now the place of row i's column in the staircase
            yield AssignmentSolution(tuple(map(columns.__getitem__, start)),
                                     math.fsum(map(price.__getitem__, start)))


def solve_exact(model: AssignmentModel) -> AssignmentSolution | Infeasible:
    """Pick the cheapest feasible column for every row independently; see `solve_sweep`."""
    return next(solve_sweep(model, (1.0,)))


def solve_bruteforce(model: AssignmentModel,
                     budget: int = DEFAULT_BRUTEFORCE_BUDGET) -> AssignmentSolution | Infeasible:
    """Enumerate every combination of fitting columns and keep the best one.

    Raises BudgetExceededError when N^M candidate assignments exceed the
    budget. The best is the least by (total, per-row column order tuples in
    row order), so the enumeration order cannot change it, and the tie-break
    matches the per-row first fit of solve_sweep.
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
    return AssignmentSolution(tuple(j + 1 for j in best), math.fsum(price[j] for j in best))


def validate_solution(model: AssignmentModel, solution: AssignmentSolution) -> list[Violation]:
    """Re-check coverage, capacity feasibility, and the reported total.

    Returns an empty list exactly when every row is assigned one in-range
    column, every assigned cell is feasible, and the reported total equals the
    math.fsum of the assigned costs. Violations are data, not errors.
    """
    columns, entries = solution.columns, model.catalog.entries
    violations = [Violation("CoverageViolation", i, detail)
                  for i, detail in _coverage_faults(columns, model.row_count, len(entries))]
    faulty = {v.row for v in violations}
    for i, (w, j) in enumerate(zip(model.fleet.workloads, columns), 1):
        if i not in faulty and not model.fits(i - 1, j - 1):
            e = entries[j - 1]
            violations.append(Violation(
                "CapacityViolation", i,
                f"{w.id!r} needs {model.scaled_cpu[i - 1]:.6g} ECU / {model.scaled_mem[i - 1]:.6g} GiB "
                f"but {e.key!r} supplies {e.cpu_capacity:.6g} / {e.mem_capacity:.6g}"))
    if not faulty:
        recomputed = math.fsum(entries[j - 1].hourly_cost for j in columns)
        if recomputed != solution.total_hourly_cost:
            violations.append(Violation(
                "CostMismatch", None,
                f"reported {solution.total_hourly_cost!r}, recomputed {recomputed!r}"))
    return violations
