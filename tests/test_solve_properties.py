"""Property tests: the incremental solve against the brute-force oracle and against fresh solves."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rightsizer import (  # noqa: E402
    Catalog,
    Fleet,
    Infeasible,
    InstanceType,
    UtilizationPolicy,
    WorkloadProfile,
    build_model,
    run_sweep,
    solve_ascending,
    solve_bruteforce,
    solve_exact,
)

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
