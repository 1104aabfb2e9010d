"""The exported AMPL program, solved as the paper's integer program by an external MILP solver.

Nothing in the package solves what `export-ampl` writes, so these tests read
`model.dat` back, build `Total_Cost`, `CPU`, `Memory` and `Total` as written
in `model.mod`, and solve them with `scipy.optimize.milp` (HiGHS).
"""

import math
from pathlib import Path

import pytest

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")

from helpers import model_for, parse_ampl_data  # noqa: E402
from rightsizer import (  # noqa: E402
    AssignmentSolution,
    Catalog,
    Fleet,
    Infeasible,
    InstanceType,
    SynthSpec,
    UtilizationPolicy,
    WorkloadProfile,
    build_fleet,
    build_model,
    export_ampl,
    generate,
    ingest_metrics,
    load_bindings,
    load_catalog,
    solve_exact,
    validate_solution,
)

CATALOG = load_catalog((Path(__file__).parent / "data" / "catalog.csv").read_bytes())


def synth_fleet(seed, count):
    output = generate(SynthSpec(seed=seed, workload_count=count, samples_per_series=24, catalog=CATALOG))
    return build_fleet(ingest_metrics(output.metrics_csv), CATALOG, load_bindings(output.bindings_csv))


def solve_exported(model, integral=True):
    """Solve the model's exported form; variable i * N + j is Trans[i, j]."""
    data = parse_ampl_data(export_ampl(model).data_text)
    serv, inst = data["SERV"], data["INST"]
    m, n = len(serv), len(inst)
    cost = [data["cost"][s, t] for s in serv for t in inst]
    # CPU{i,j} and Memory{i,j}: Trans[i,j] * demand[i] * d[i] <= supply[j], one row each
    coefficients, supplies = [], []
    for s in serv:
        for t in inst:
            for demand, supply in (("cpu_d", "cpu_s"), ("mem_d", "mem_s")):
                coefficients.append(data[demand][s] * data["d"][s])
                supplies.append(data[supply][t])
    cells = len(cost)
    rows = range(2 * cells)  # row 2c is CPU of cell c, row 2c + 1 its Memory
    capacity = sparse.csr_array((coefficients, (rows, [r // 2 for r in rows])), shape=(2 * cells, cells))
    # Total{i}: sum over j of Trans[i,j] = 1
    total = sparse.kron(sparse.eye_array(m), sparse.csr_array([[1.0] * n]))
    return optimize.milp(
        cost,
        constraints=[optimize.LinearConstraint(capacity, -math.inf, supplies),
                     optimize.LinearConstraint(total, 1.0, 1.0)],
        integrality=[int(integral)] * cells,
        options={"mip_rel_gap": 0.0})


def assignment_of(result, model):
    """The solver's 0/1 Trans, rounded, as a solution with an fsum total."""
    n = model.column_count
    # in row order, so a row with no 1 or two of them leaves a tuple of the wrong length
    chosen = tuple(j + 1 for i in range(model.row_count) for j in range(n)
                   if round(result.x[i * n + j]) == 1)
    return AssignmentSolution(chosen, math.fsum(model.catalog.entries[j - 1].hourly_cost
                                                for j in chosen))


def mixed_policy(fleet, default):
    return UtilizationPolicy(default, {w.id: 1.0 + (k % 4) * 0.5 for k, w in enumerate(fleet.workloads[::3])})


@pytest.mark.parametrize("seed, count", [(1, 40), (2, 200)])
@pytest.mark.parametrize("policy", [
    lambda fleet: UtilizationPolicy.uniform(1.0),
    lambda fleet: UtilizationPolicy.uniform(1.5),
    lambda fleet: UtilizationPolicy.uniform(2.5),
    lambda fleet: mixed_policy(fleet, 1.5),
], ids=["delta-1.0", "delta-1.5", "delta-2.5", "per-workload"])
def test_milp_optimum_of_the_export_equals_solve_exact(seed, count, policy):
    fleet = synth_fleet(seed, count)
    model = build_model(fleet, CATALOG, policy(fleet))
    exact = solve_exact(model)
    assert not isinstance(exact, Infeasible)
    result = solve_exported(model)
    assert result.status == 0
    solution = assignment_of(result, model)
    assert validate_solution(model, solution) == []
    assert solution.total_hourly_cost == exact.total_hourly_cost
    assert result.fun == pytest.approx(exact.total_hourly_cost, rel=1e-9)


# on this fleet 2 rows fit no type at factor 16, and 9 at factor 50
@pytest.mark.parametrize("delta, infeasible", [(1.0, False), (2.5, False), (12.0, False),
                                               (16.0, True), (50.0, True)])
def test_milp_reports_infeasible_exactly_when_solve_exact_does(delta, infeasible):
    model = build_model(synth_fleet(3, 40), CATALOG, UtilizationPolicy.uniform(delta))
    assert isinstance(solve_exact(model), Infeasible) == infeasible
    assert solve_exported(model).status == (2 if infeasible else 0)


def test_relaxation_of_the_exported_form_is_weak():
    # 4 ECU of demand: half of it on the 2-ECU type satisfies CPU{i,j} when Trans is fractional
    catalog = Catalog((InstanceType("lin.two.r1", 2.0, 4.0, 0.1), InstanceType("lin.eight.r1", 8.0, 32.0, 1.0)))
    model = model_for(Fleet((WorkloadProfile("w1", "lin.eight.r1", 4.0, 1.0),)), catalog, 1.0)
    assert solve_exact(model).total_hourly_cost == 1.0
    assert solve_exported(model).fun == pytest.approx(1.0)
    assert solve_exported(model, integral=False).fun == pytest.approx(0.55)
