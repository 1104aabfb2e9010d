"""Property tests: the sweep solve against the brute-force oracle, a per-row oracle and
fresh solves at each factor, and the one coverage rule that validation and every reader
of a solution apply."""

import functools
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rightsizer import reports  # noqa: E402
from rightsizer import (  # noqa: E402
    AssignmentSolution,
    Catalog,
    Fleet,
    Infeasible,
    InfeasibleRow,
    InstanceType,
    UtilizationPolicy,
    WorkloadProfile,
    build_model,
    consolidation_report,
    project_costs,
    run_sweep,
    solve_bruteforce,
    solve_exact,
    solve_sweep,
    utilization_report,
    validate_solution,
)
from rightsizer.errors import RowMismatchError  # noqa: E402
from rightsizer.solve import _staircase  # noqa: E402

# Grids keep cost/cpu/mem ties and demands exactly at capacity common.
CPU_GRID = (1.0, 2.0, 4.0, 8.0, 16.0)
MEM_GRID = (2.0, 4.0, 8.0, 16.0, 32.0)
COST_GRID = (0.05, 0.1, 0.1, 0.2, 0.2, 0.4, 0.8)
FACTOR_GRID = (1.0, 1.0, 1.5, 2.0, 4.0)

PROPERTY_SETTINGS = settings(deadline=None, database=None, derandomize=True)

factors = st.sampled_from(FACTOR_GRID) | st.floats(1.0, 8.0)


@st.composite
def catalogs(draw, max_columns):
    n = draw(st.integers(1, max_columns))
    return Catalog(tuple(
        InstanceType(f"os.fam{j}.size.r{draw(st.integers(0, 1))}", draw(st.sampled_from(CPU_GRID)),
                     draw(st.sampled_from(MEM_GRID)), draw(st.sampled_from(COST_GRID)))
        for j in range(n)))


@st.composite
def fleets(draw, catalog, max_rows, min_fraction=0.0):
    """Workloads whose demand is a fraction of their current type's capacity."""
    fraction = st.sampled_from((0.25, 0.5, 1.0)) | st.floats(min_fraction, 1.0)
    workloads = []
    for i in range(draw(st.integers(1, max_rows))):
        current = draw(st.sampled_from(catalog.entries))
        workloads.append(WorkloadProfile(
            f"w{i + 1}", current.key,
            draw(fraction) * current.cpu_capacity,
            draw(fraction) * current.mem_capacity))
    return Fleet(tuple(workloads))


@st.composite
def policies(draw, fleet):
    """A drawn default factor, and drawn factors of their own for some workloads."""
    ids = [w.id for w in fleet.workloads]
    return UtilizationPolicy(draw(factors), {
        i: draw(factors) for i in draw(st.lists(st.sampled_from(ids), unique=True))})


@st.composite
def factor_sequences(draw, max_length):
    """Sweep factors that move up, down and not at all from one case to the next.

    The drawn factors are followed by their reverse and a repeat of the
    first one, so every sequence holds descending and repeated factors.
    """
    drawn = draw(st.lists(factors, min_size=1, max_size=max_length))
    return drawn + drawn[::-1] + drawn[:1]


@st.composite
def swept_models(draw, catalog_strategy, max_rows, max_length):
    """One model with a per-workload policy, and the factors to sweep it over."""
    catalog = draw(catalog_strategy)
    fleet = draw(fleets(catalog, max_rows))
    return build_model(fleet, catalog, draw(policies(fleet))), draw(factor_sequences(max_length))


def scaled(model, factor):
    """`model` with every scaled demand times `factor`, one float product each."""
    return model._replace(scaled_cpu=tuple(c * factor for c in model.scaled_cpu),
                          scaled_mem=tuple(m * factor for m in model.scaled_mem))


@PROPERTY_SETTINGS
@given(swept_models(catalogs(max_columns=5), max_rows=4, max_length=4))
def test_sweep_solve_matches_bruteforce_at_every_factor(swept):
    model, sweep = swept
    assert list(solve_sweep(model, sweep)) == [solve_bruteforce(scaled(model, f)) for f in sweep]


@PROPERTY_SETTINGS
@given(swept_models(catalogs(max_columns=30), max_rows=25, max_length=6))
def test_sweep_solve_matches_a_fresh_solve_at_each_factor(swept):
    model, sweep = swept
    assert list(solve_sweep(model, sweep)) == [solve_exact(scaled(model, f)) for f in sweep]


@st.composite
def crowded_catalogs(draw, max_columns):
    """Catalogs where dominated columns, exact twins and price ties are common.

    Each column is a fresh draw from the grids, a twin of an earlier column
    (same capacities and price), or an earlier column's capacities at a drawn
    price. Keys come from a drawn permutation, so key order is not catalog order.
    """
    n = draw(st.integers(1, max_columns))
    names = draw(st.permutations(range(n)))
    shapes = []
    for _ in range(n):
        kind = draw(st.sampled_from(("fresh", "twin", "reprice"))) if shapes else "fresh"
        if kind == "fresh":
            shape = (draw(st.sampled_from(CPU_GRID)), draw(st.sampled_from(MEM_GRID)),
                     draw(st.sampled_from(COST_GRID)))
        else:
            shape = draw(st.sampled_from(shapes))
            if kind == "reprice":
                shape = (*shape[:2], draw(st.sampled_from(COST_GRID)))
        shapes.append(shape)
    return Catalog(tuple(InstanceType(f"os.k{name:02d}.r1", *shape) for name, shape in zip(names, shapes)))


def preference(entry):
    """The shared tie-break, written without the solver: cost, then cpu, mem and key."""
    return entry.hourly_cost, entry.cpu_capacity, entry.mem_capacity, entry.key


def first_fit_by_row(model):
    """Per-row oracle: the least column by `preference` among those `fits` accepts."""
    entries = model.catalog.entries
    chosen = [min((j for j in range(model.column_count) if model.fits(i, j)),
                  key=lambda j: preference(entries[j]), default=None)
              for i in range(model.row_count)]
    missing = tuple(InfeasibleRow(i + 1, w.id, model.scaled_cpu[i], model.scaled_mem[i])
                    for i, (w, j) in enumerate(zip(model.fleet.workloads, chosen)) if j is None)
    if missing:
        return Infeasible(missing)
    return AssignmentSolution(tuple(j + 1 for j in chosen), math.fsum(entries[j].hourly_cost for j in chosen))


@PROPERTY_SETTINGS
@given(crowded_catalogs(max_columns=40))
def test_staircase_keeps_exactly_the_columns_no_earlier_column_dominates(catalog):
    ordered = sorted(catalog.entries, key=preference)
    kept = [e for place, e in enumerate(ordered) if not any(
        e.cpu_capacity <= earlier.cpu_capacity and e.mem_capacity <= earlier.mem_capacity
        for earlier in ordered[:place])]
    columns, cpu, mem, price = _staircase(catalog)
    assert columns == tuple(catalog.entries.index(e) + 1 for e in kept)
    assert cpu == tuple(e.cpu_capacity for e in kept)
    assert mem == tuple(e.mem_capacity for e in kept)
    assert price == tuple(e.hourly_cost for e in kept)


@PROPERTY_SETTINGS
@given(swept_models(crowded_catalogs(max_columns=40), max_rows=30, max_length=4))
def test_sweep_solve_matches_a_per_row_oracle_on_crowded_catalogs(swept):
    model, sweep = swept
    assert list(solve_sweep(model, sweep)) == [first_fit_by_row(scaled(model, f)) for f in sweep]


@st.composite
def sweeps(draw):
    catalog = draw(catalogs(max_columns=8))
    # demand >= 1/4 of the current type, so every row is unplaceable at factor 200
    fleet = draw(fleets(catalog, max_rows=12, min_fraction=0.25))
    middle = draw(st.lists(st.floats(1.0, 200.0, exclude_min=True, exclude_max=True), max_size=12))
    return fleet, catalog, sorted({1.0, 200.0, *middle})


@PROPERTY_SETTINGS
@given(sweeps())
def test_sweep_rows_going_infeasible_part_way_match_each_case_solved_alone(sweep):
    fleet, catalog, deltas = sweep
    result = run_sweep(fleet, catalog, deltas)
    assert result.cases[0].infeasible_ids == ()
    assert len(result.cases[-1].infeasible_ids) == len(fleet)
    for case, delta in zip(result.cases, deltas):
        alone = solve_exact(build_model(fleet, catalog, UtilizationPolicy.uniform(delta)))
        if isinstance(alone, Infeasible):
            assert case.infeasible_ids == tuple(r.workload_id for r in alone.rows)
            assert case.total_hourly is None and case.assignment is None
        else:
            assert case.infeasible_ids == ()
            assert case.total_hourly == alone.total_hourly_cost
            assert case.assignment == {w.id: catalog.entries[j - 1].key
                                       for w, j in zip(fleet.workloads, alone.columns)}


@st.composite
def solutions(draw, model):
    """A tuple of any ints, of any length near M, or one column per row with up to
    three set to a column near 1..N."""
    m, n = model.row_count, model.column_count
    if draw(st.booleans()):
        return AssignmentSolution(tuple(draw(st.lists(st.integers(), max_size=m + 2))), 0.0)
    columns = [draw(st.integers(1, n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        columns[draw(st.integers(0, m - 1))] = draw(st.sampled_from((-1, 0, n, n + 1)))
    return AssignmentSolution(tuple(columns), 0.0)


@st.composite
def models_and_solutions(draw):
    catalog = draw(catalogs(max_columns=4))
    model = build_model(draw(fleets(catalog, max_rows=4)), catalog, UtilizationPolicy.uniform(1.0))
    return model, draw(solutions(model))


@PROPERTY_SETTINGS
@given(models_and_solutions())
def test_validation_finds_a_coverage_fault_exactly_when_the_readers_refuse_the_solution(case):
    model, solution = case
    m, n = model.row_count, model.column_count
    coverage = [v for v in validate_solution(model, solution) if v.kind == "CoverageViolation"]
    # the row count first, then each column outside 1..N in row order, and nothing else
    expected = [None] if len(solution.columns) != m else []
    expected += [i for i, j in enumerate(solution.columns, 1) if not 1 <= j <= n]
    assert [v.row for v in coverage] == expected
    for reader in (project_costs, utilization_report, consolidation_report,
                   functools.partial(reports.assignment_spec, default_delta=1.0)):
        if coverage:
            with pytest.raises(RowMismatchError) as exc:
                reader(model.fleet, model.catalog, solution)
            assert str(exc.value) == coverage[0].detail
        else:
            reader(model.fleet, model.catalog, solution)

