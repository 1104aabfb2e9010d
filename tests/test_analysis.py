import math
import random
from fractions import Fraction

import pytest
from scipy import stats as scipy_stats

from helpers import abc_catalog, assignment_report, model_for, random_trial_model
from rightsizer import (
    AssignmentSolution,
    Catalog,
    Fleet,
    Infeasible,
    InstanceType,
    WorkloadProfile,
    consolidation_report,
    default_sweep_deltas,
    project_costs,
    run_sweep,
    solve_exact,
    t_test,
    utilization_report,
    validate_solution,
)
from rightsizer.errors import (
    DegenerateVarianceError,
    InsufficientSamplesError,
    InvalidDeltasError,
    RowMismatchError,
)

HOURS = 8760


# --- cost projection --------------------------------------------------------

def anchor_catalog():
    return Catalog((
        InstanceType("os.big.x.r1", 4.0, 8.0, 21.09),
        InstanceType("os.small.y.r1", 4.0, 8.0, 10.15),
    ))


def test_annual_projection_anchor():
    fleet = Fleet((WorkloadProfile("w1", "os.big.x.r1", 1.0, 2.0),))
    report = project_costs(fleet, anchor_catalog(), AssignmentSolution((2,), 10.15))
    assert report.baseline_hourly == pytest.approx(21.09)
    assert report.baseline_annual == pytest.approx(184748.40)
    assert report.target_hourly == pytest.approx(10.15)
    assert report.target_annual == pytest.approx(88914.00)
    assert report.savings_fraction == pytest.approx(0.5187, abs=0.0005)


def test_zero_savings_when_assignment_is_identity():
    fleet = Fleet((WorkloadProfile("w1", "os.big.x.r1", 1.0, 2.0),))
    report = project_costs(fleet, anchor_catalog(), AssignmentSolution((1,), 21.09))
    assert report.savings_fraction == 0.0
    assert report.per_workload[0].delta == 0.0


def test_annual_is_hourly_times_hours_exactly():
    rng = random.Random(41)
    for _ in range(50):
        model = random_trial_model(rng)
        solution = solve_exact(model)
        if isinstance(solution, Infeasible):
            continue
        hours = rng.randint(1, 20000)
        report = project_costs(model.fleet, model.catalog, solution, hours)
        assert report.baseline_annual == report.baseline_hourly * hours
        assert report.target_annual == report.target_hourly * hours


def test_project_costs_rejects_partial_solution():
    fleet = Fleet((
        WorkloadProfile("w1", "os.big.x.r1", 1.0, 2.0),
        WorkloadProfile("w2", "os.big.x.r1", 1.0, 2.0),
    ))
    with pytest.raises(RowMismatchError):
        project_costs(fleet, anchor_catalog(), AssignmentSolution((1,), 21.09))


def test_totals_do_not_depend_on_fleet_order():
    # the same five prices billed in another order; a running += sum of the
    # target order gives 1.3000000000000003 against a baseline of 1.3
    catalog = abc_catalog()
    fleet = Fleet(tuple(WorkloadProfile(f"w{i}", catalog.entries[j - 1].key, 0.5, 0.5)
                        for i, j in enumerate((1, 2, 3, 3, 2), start=1)))
    solution = AssignmentSolution((2, 2, 3, 3, 1), 1.3)
    report = project_costs(fleet, catalog, solution)
    assert report.baseline_hourly == report.target_hourly == 1.3
    assert report.savings_fraction == 0.0


# every reader of a solution's rows; the assignment report bills each row too
SOLUTION_READERS = [project_costs, utilization_report, consolidation_report,
                    pytest.param(assignment_report, id="assignment_spec")]


def two_row_fleet():
    return Fleet((WorkloadProfile("w1", "lin.a.small.r1", 1.0, 2.0),
                  WorkloadProfile("w2", "lin.a.small.r1", 1.0, 2.0)))


@pytest.mark.parametrize("analysis", SOLUTION_READERS)
@pytest.mark.parametrize("column", [0, -1, 4])
def test_analyses_reject_out_of_range_column(analysis, column):
    # abc_catalog has columns 1..3; column 0 or -1 must not wrap to the last type
    with pytest.raises(RowMismatchError, match=f"row 2 is assigned column {column}, catalog has columns 1..3"):
        analysis(two_row_fleet(), abc_catalog(), AssignmentSolution((1, column), 0.2))


@pytest.mark.parametrize("analysis", SOLUTION_READERS)
def test_analyses_reject_a_missing_row(analysis):
    with pytest.raises(RowMismatchError, match=r"^solution assigns rows 1\.\.1, fleet has rows 1\.\.2$"):
        analysis(two_row_fleet(), abc_catalog(), AssignmentSolution((1,), 0.1))


@pytest.mark.parametrize("analysis", SOLUTION_READERS)
def test_analyses_reject_an_extra_row(analysis):
    with pytest.raises(RowMismatchError, match=r"^solution assigns rows 1\.\.3, fleet has rows 1\.\.2$"):
        analysis(two_row_fleet(), abc_catalog(), AssignmentSolution((1, 1, 1), 0.3))


@pytest.mark.parametrize("columns, detail", [
    ((1,), "solution assigns rows 1..1, fleet has rows 1..2"),
    ((1, 1, 1), "solution assigns rows 1..3, fleet has rows 1..2"),
    ((1, 0), "row 2 is assigned column 0, catalog has columns 1..3"),
    ((1, -1), "row 2 is assigned column -1, catalog has columns 1..3"),
    ((1, 4), "row 2 is assigned column 4, catalog has columns 1..3"),
], ids=["short", "long", "column-0", "column--1", "column-N+1"])
def test_validation_names_each_fault_the_readers_refuse(columns, detail):
    # the readers above refuse each of these solutions with the same text
    model = model_for(two_row_fleet(), abc_catalog(), 1.0)
    violations = validate_solution(model, AssignmentSolution(columns, 0.1 * len(columns)))
    assert [(v.kind, v.detail) for v in violations] == [("CoverageViolation", detail)]


# --- sweep -------------------------------------------------------------------

def sweep_catalog():
    # the three doubling columns plus a small type priced between a and b,
    # used as the current type so the baseline sits at 0.15 USD/h
    return Catalog((
        InstanceType("lin.a.small.r1", 2.0, 4.0, 0.10),
        InstanceType("lin.b.medium.r1", 4.0, 8.0, 0.20),
        InstanceType("lin.c.large.r1", 8.0, 16.0, 0.40),
        InstanceType("lin.d.tiny.r1", 1.6, 3.2, 0.15),
    ))


def sweep_fleet():
    return Fleet((WorkloadProfile("w1", "lin.d.tiny.r1", 1.5, 3.0),))


def test_sweep_totals_and_infeasible_case():
    result = run_sweep(sweep_fleet(), sweep_catalog(), [1.0, 1.5, 6.0])
    assert [c.total_hourly for c in result.cases] == [
        pytest.approx(0.10), pytest.approx(0.20), None]
    assert result.cases[2].infeasible_ids == ("w1",)  # 9.0 ECU exceeds every column
    assert result.cases[2].total_annual is None


def test_sweep_break_even_bracket():
    result = run_sweep(sweep_fleet(), sweep_catalog(), [1.0, 1.5, 6.0])
    assert result.baseline_hourly == pytest.approx(0.15)
    assert result.break_even is not None
    assert result.break_even.last_saving_delta == 1.0
    assert result.break_even.first_exceeding_delta == 1.5


def test_sweep_break_even_absent_when_never_exceeded():
    fleet = Fleet((WorkloadProfile("w1", "lin.c.large.r1", 1.5, 3.0),))
    result = run_sweep(fleet, sweep_catalog(), [1.0, 1.2])
    assert result.break_even is None


def test_sweep_break_even_absent_when_exceeded_from_start():
    fleet = Fleet((WorkloadProfile("w1", "lin.a.small.r1", 1.5, 3.0),))
    result = run_sweep(fleet, sweep_catalog(), [1.5, 2.0])
    assert result.cases[0].total_annual > result.baseline_annual
    assert result.break_even is None


def test_sweep_rejects_an_empty_factor_list():
    with pytest.raises(InvalidDeltasError, match="at least one"):
        run_sweep(sweep_fleet(), sweep_catalog(), [])


def test_sweep_rejects_unordered_deltas():
    with pytest.raises(InvalidDeltasError):
        run_sweep(sweep_fleet(), sweep_catalog(), [2.0, 1.0])


def test_sweep_rejects_factor_below_one():
    with pytest.raises(InvalidDeltasError):
        run_sweep(sweep_fleet(), sweep_catalog(), [0.5, 1.0])


@pytest.mark.parametrize("deltas", [[1.0, math.inf], [1.0, 2.0, math.nan], [math.inf]])
def test_sweep_rejects_non_finite_factor_anywhere(deltas):
    with pytest.raises(InvalidDeltasError, match="finite"):
        run_sweep(sweep_fleet(), sweep_catalog(), deltas)


def test_default_deltas_are_31_cases():
    deltas = default_sweep_deltas()
    assert len(deltas) == 31
    assert deltas[0] == 1.0
    assert deltas[-1] == 4.0
    assert deltas[10] == 2.0


def test_sweep_totals_non_decreasing():
    rng = random.Random(42)
    for _ in range(20):
        model = random_trial_model(rng)
        result = run_sweep(model.fleet, model.catalog)
        totals = [c.total_hourly for c in result.cases if c.total_hourly is not None]
        for a, b in zip(totals, totals[1:]):
            assert b >= a


# --- utilization -------------------------------------------------------------

def test_utilization_fractions():
    catalog = Catalog((
        InstanceType("os.cur.x.r1", 4.0, 8.0, 0.20),
        InstanceType("os.tgt.y.r1", 2.0, 4.0, 0.10),
    ))
    fleet = Fleet((WorkloadProfile("w1", "os.cur.x.r1", 1.6, 2.0),))
    report = utilization_report(fleet, catalog, AssignmentSolution((2,), 0.10))
    row = report.per_workload[0]
    assert row.source_cpu_util == pytest.approx(0.40)
    assert row.target_cpu_util == pytest.approx(0.80)
    assert row.source_mem_util == pytest.approx(0.25)
    assert row.target_mem_util == pytest.approx(0.50)


def test_identity_assignment_keeps_utilization():
    catalog = abc_catalog()
    fleet = Fleet((
        WorkloadProfile("w1", "lin.a.small.r1", 0.8, 1.0),
        WorkloadProfile("w2", "lin.b.medium.r1", 2.4, 3.0),
    ))
    report = utilization_report(fleet, catalog, AssignmentSolution((1, 2), 0.30))
    for row in report.per_workload:
        assert row.source_cpu_util == row.target_cpu_util
        assert row.source_mem_util == row.target_mem_util
    assert report.cpu_ttest.t_statistic == 0.0
    assert report.mem_ttest.t_statistic == 0.0


def test_target_utilization_bounded_by_factor():
    rng = random.Random(43)
    for _ in range(50):
        model = random_trial_model(rng)
        solution = solve_exact(model)
        if isinstance(solution, Infeasible):
            continue
        report = utilization_report(model.fleet, model.catalog, solution)
        for row, w in zip(report.per_workload, model.fleet.workloads):
            factor = model.policy.delta_for(w.id)
            assert row.target_cpu_util * factor <= 1.0 + 1e-12
            assert row.target_mem_util * factor <= 1.0 + 1e-12


def test_utilization_that_overflows_is_refused():
    catalog = Catalog((
        InstanceType("os.cur.x.r1", 0.5, 8.0, 0.20),
        InstanceType("os.tgt.y.r1", 1.7e308, 8.0, 0.10),
    ))
    fleet = Fleet((WorkloadProfile("w1", "os.cur.x.r1", 1e308, 2.0),))
    with pytest.raises(ValueError, match=r"^source_cpu utilization holds inf, which is not a finite number$"):
        utilization_report(fleet, catalog, AssignmentSolution((2,), 0.10))


def test_single_workload_report_skips_ttest():
    catalog = abc_catalog()
    fleet = Fleet((WorkloadProfile("w1", "lin.a.small.r1", 0.8, 1.0),))
    report = utilization_report(fleet, catalog, AssignmentSolution((1,), 0.10))
    assert report.cpu_ttest is None
    assert report.mem_ttest is None


# --- t-test --------------------------------------------------------------------

def test_t_identical_samples():
    result = t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    assert result.t_statistic == 0.0
    assert result.degrees_of_freedom == 4
    assert result.variant == "student_pooled"


def test_t_hand_case():
    # pooled s^2 = 0.02, standard error = sqrt(0.02), t = -0.3 / 0.1414...
    result = t_test([0.1, 0.3], [0.4, 0.6])
    assert result.t_statistic == pytest.approx(-2.1213, abs=0.0001)
    assert result.degrees_of_freedom == 2


def test_t_degenerate_variance():
    with pytest.raises(DegenerateVarianceError):
        t_test([0.2, 0.2], [0.4, 0.4])


def test_t_zero_variance_equal_means():
    result = t_test([0.2, 0.2], [0.2, 0.2])
    assert result.t_statistic == 0.0


def test_t_needs_two_each():
    with pytest.raises(InsufficientSamplesError):
        t_test([0.1], [0.2, 0.3])


def test_t_reads_ints_and_fractions_as_floats():
    assert t_test([Fraction(1, 3), Fraction(2, 3)], [1, 2]) == t_test([1 / 3, 2 / 3], [1.0, 2.0])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_t_refuses_a_sample_that_is_not_finite(value):
    # statistics gave an infinite or NaN t here, which JSON writes as Infinity or NaN
    with pytest.raises(ValueError, match=f"^sample_a holds {value!r}, which is not a finite number$"):
        t_test([0.1, value, 0.3], [0.2, 0.3])
    with pytest.raises(ValueError, match=f"^sample_b holds {value!r}, which is not a finite number$"):
        t_test([0.1, 0.3], [0.2, 0.3, value])
    # too few values is reported first
    with pytest.raises(InsufficientSamplesError):
        t_test([value], [0.2, 0.3])


def test_t_antisymmetric_and_matches_scipy():
    rng = random.Random(44)
    for _ in range(100):
        a = [rng.uniform(0, 1) for _ in range(rng.randint(2, 12))]
        b = [rng.uniform(0, 1) for _ in range(rng.randint(2, 12))]
        ab = t_test(a, b)
        ba = t_test(b, a)
        assert ab.t_statistic == -ba.t_statistic
        assert ab.degrees_of_freedom == ba.degrees_of_freedom
        expected = scipy_stats.ttest_ind(a, b, equal_var=True)
        assert ab.t_statistic == pytest.approx(expected.statistic, rel=1e-9)
        assert ab.degrees_of_freedom == len(a) + len(b) - 2


# --- consolidation -----------------------------------------------------------

def test_consolidation_tally():
    catalog = abc_catalog()
    fleet = Fleet((
        WorkloadProfile("w1", "lin.a.small.r1", 0.5, 1.0),
        WorkloadProfile("w2", "lin.a.small.r1", 0.5, 1.0),
        WorkloadProfile("w3", "lin.b.medium.r1", 0.5, 1.0),
    ))
    report = consolidation_report(fleet, catalog, AssignmentSolution((1, 1, 1), 0.30))
    assert report.source_type_count == 2
    assert report.target_type_count == 1
    assert [(e.source_type, e.target_type, e.workload_count) for e in report.flow_edges] == [
        ("lin.a.small.r1", "lin.a.small.r1", 2),
        ("lin.b.medium.r1", "lin.a.small.r1", 1),
    ]


def test_consolidation_identity_assignment():
    catalog = abc_catalog()
    fleet = Fleet((
        WorkloadProfile("w1", "lin.a.small.r1", 0.5, 1.0),
        WorkloadProfile("w2", "lin.b.medium.r1", 0.5, 1.0),
    ))
    report = consolidation_report(fleet, catalog, AssignmentSolution((1, 2), 0.30))
    assert report.source_type_count == report.target_type_count == 2
    assert all(e.source_type == e.target_type for e in report.flow_edges)


def test_consolidation_disjoint_sets():
    catalog = abc_catalog()
    fleet = Fleet((
        WorkloadProfile("w1", "lin.a.small.r1", 0.5, 1.0),
        WorkloadProfile("w2", "lin.b.medium.r1", 0.5, 1.0),
    ))
    report = consolidation_report(fleet, catalog, AssignmentSolution((3, 3), 0.80))
    assert report.target_type_count == 1
    assert sum(e.workload_count for e in report.flow_edges) == 2


def test_consolidation_counts_sum_to_fleet_size():
    rng = random.Random(45)
    for _ in range(50):
        model = random_trial_model(rng)
        solution = solve_exact(model)
        if isinstance(solution, Infeasible):
            continue
        report = consolidation_report(model.fleet, model.catalog, solution)
        assert sum(e.workload_count for e in report.flow_edges) == len(model.fleet.workloads)
        assigned = {model.catalog.entries[j - 1].key for j in solution.columns}
        assert report.target_type_count == len(assigned)
