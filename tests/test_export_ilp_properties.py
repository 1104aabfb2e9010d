"""Property test: the exported ILP, solved by `scipy.optimize.milp`, against `solve_exact`
on random small catalogs and fleets."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rightsizer import (  # noqa: E402
    Fleet,
    Infeasible,
    UtilizationPolicy,
    WorkloadProfile,
    build_model,
    solve_exact,
    validate_solution,
)
from test_export_ilp import assignment_of, solve_exported  # noqa: E402
from test_solve_properties import crowded_catalogs  # noqa: E402

# Demands are these fractions of a grid capacity, times a factor from this
# grid, so every demand is a short binary fraction: it equals a capacity or
# misses it by at least 1/16 of a unit. HiGHS's feasibility tolerance (1e-7)
# then accepts exactly the columns that `fits` accepts.
FRACTIONS = (0.25, 0.5, 0.75, 1.0)
DELTAS = (1.0, 1.25, 1.5, 2.0, 2.5, 3.0)


@st.composite
def models(draw):
    """1-8 rows on a catalog of 1-6 columns with price ties and equal capacities."""
    catalog = draw(crowded_catalogs(max_columns=6))
    workloads = []
    for i in range(draw(st.integers(1, 8))):
        current = draw(st.sampled_from(catalog.entries))
        workloads.append(WorkloadProfile(
            f"w{i + 1}", current.key,
            draw(st.sampled_from(FRACTIONS)) * current.cpu_capacity,
            draw(st.sampled_from(FRACTIONS)) * current.mem_capacity))
    return build_model(Fleet(tuple(workloads)), catalog, UtilizationPolicy.uniform(draw(st.sampled_from(DELTAS))))


@settings(max_examples=200, deadline=5000, database=None, derandomize=True)
@given(models())
def test_milp_of_the_export_agrees_with_solve_exact(model):
    exact = solve_exact(model)
    result = solve_exported(model)
    if isinstance(exact, Infeasible):
        assert result.status == 2
        return
    assert result.status == 0
    solution = assignment_of(result, model)
    assert validate_solution(model, solution) == []
    assert solution.total_hourly_cost == exact.total_hourly_cost
    assert result.fun == pytest.approx(exact.total_hourly_cost, rel=1e-9)
