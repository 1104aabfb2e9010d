"""Property tests: the incremental solve against the brute-force oracle and against fresh solves,
and the one coverage rule that validation and every reader of a solution apply."""

import functools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rightsizer import reports  # noqa: E402
from rightsizer import (  # noqa: E402
    AssignmentSolution,
    Catalog,
    Fleet,
    Infeasible,
    InstanceType,
    UtilizationPolicy,
    WorkloadProfile,
    build_model,
    consolidation_report,
    project_costs,
    run_sweep,
    solve_ascending,
    solve_bruteforce,
    solve_exact,
    utilization_report,
    validate_solution,
)
from rightsizer.errors import RowMismatchError  # noqa: E402

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
def policy_sequences(draw, fleet, max_length):
    """Policies whose per-workload factors move up, down and not at all between models.

    The drawn sequence is followed by its reverse and a repeat of its first
    policy, so every sequence holds descending and repeated factors.
    """
    ids = [w.id for w in fleet.workloads]
    drawn = [UtilizationPolicy(draw(factors), {
        i: draw(factors) for i in draw(st.lists(st.sampled_from(ids), unique=True))})
        for _ in range(draw(st.integers(1, max_length)))]
    return drawn + drawn[::-1] + drawn[:1]


@st.composite
def model_sequences(draw, max_columns, max_rows, max_length):
    catalog = draw(catalogs(max_columns))
    fleet = draw(fleets(catalog, max_rows))
    return [build_model(fleet, catalog, policy)
            for policy in draw(policy_sequences(fleet, max_length))]


@PROPERTY_SETTINGS
@given(model_sequences(max_columns=5, max_rows=4, max_length=4))
def test_ascending_solve_matches_bruteforce_on_every_model(models):
    assert list(solve_ascending(models)) == [solve_bruteforce(m) for m in models]


@PROPERTY_SETTINGS
@given(model_sequences(max_columns=30, max_rows=25, max_length=6))
def test_ascending_solve_matches_a_fresh_solve_of_each_model(models):
    assert list(solve_ascending(models)) == [next(solve_ascending([m])) for m in models]


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
            assert case.assignment == {w.id: catalog.entries[alone.assignment[i] - 1].key
                                       for i, w in enumerate(fleet.workloads, start=1)}


@st.composite
def solutions(draw, model):
    """A full in-range assignment, then up to three edits: a row dropped, a row
    outside 1..M added, or a row moved to a column outside 1..N."""
    m, n = model.row_count, model.column_count
    assignment = {i: draw(st.integers(1, n)) for i in range(1, m + 1)}
    for edit in draw(st.lists(st.sampled_from(("drop", "extra", "column")), max_size=3)):
        if edit == "drop" and assignment:
            del assignment[draw(st.sampled_from(sorted(assignment)))]
        elif edit == "extra":
            assignment[draw(st.sampled_from((-1, 0, m + 1, m + 2)))] = draw(st.integers(-1, n + 1))
        elif edit == "column" and assignment:
            assignment[draw(st.sampled_from(sorted(assignment)))] = draw(st.sampled_from((-1, 0, n + 1)))
    return AssignmentSolution(assignment, 0.0)


@st.composite
def models_and_solutions(draw):
    catalog = draw(catalogs(max_columns=4))
    model = build_model(draw(fleets(catalog, max_rows=4)), catalog, UtilizationPolicy.uniform(1.0))
    return model, draw(solutions(model))


@PROPERTY_SETTINGS
@given(models_and_solutions())
def test_validation_finds_a_coverage_fault_exactly_when_the_readers_refuse_the_solution(case):
    model, solution = case
    coverage = [v for v in validate_solution(model, solution) if v.kind == "CoverageViolation"]
    assert [v.row for v in coverage] == sorted(v.row for v in coverage)
    for reader in (project_costs, utilization_report, consolidation_report,
                   functools.partial(reports.assignment_spec, default_delta=1.0)):
        if coverage:
            with pytest.raises(RowMismatchError) as exc:
                reader(model.fleet, model.catalog, solution)
            assert str(exc.value) == coverage[0].detail
        else:
            reader(model.fleet, model.catalog, solution)
