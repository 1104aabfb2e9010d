"""Post-solve analyses: cost projection, headroom sweep, utilization, consolidation.

Hourly totals are summed with math.fsum, so they do not depend on the
order of the fleet. Annual figures are hourly figures times a configurable
hours-per-year (8760 by default); one too large for a float is a
ConfigError. The sweep builds one model at the factor 1 and solves it at
each utilization factor in ascending order in one pass, each row resuming
its cheapest-first scan where the previous factor left it, and brackets
the break-even point where the optimized fleet's projected annual cost
first exceeds the baseline.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple, Sequence

from .catalog import HOURS_PER_YEAR, Catalog
from .errors import (
    ConfigError,
    DegenerateVarianceError,
    InsufficientSamplesError,
    InvalidDeltasError,
)
from .metrics import Fleet
from .model import DEFAULT_SWEEP_SPEC, UtilizationPolicy, build_model, parse_sweep_spec
from .solve import AssignmentSolution, Infeasible, assigned_types, solve_sweep

def default_sweep_deltas() -> tuple[float, ...]:
    """Utilization factors 1.0 through 4.0 in 0.1 steps: 31 sweep cases.

    They are `DEFAULT_SWEEP_SPEC` parsed as the CLI parses `--sweep`.
    """
    return parse_sweep_spec(DEFAULT_SWEEP_SPEC)


def _baseline_hourly(fleet: Fleet, catalog: Catalog) -> float:
    return math.fsum(catalog.lookup(w.current_type).hourly_cost for w in fleet.workloads)


def _annual(hourly: float, hours_per_year: int) -> float:
    """`hourly` times `hours_per_year`; ConfigError if that is not a finite float."""
    try:
        annual = hourly * hours_per_year
    except OverflowError:  # hours_per_year itself is past the largest float
        annual = math.inf
    if not math.isfinite(annual):
        raise ConfigError(f"hours per year too large: {hourly:.4f} USD/h over a year is not a finite number")
    return annual


class WorkloadCost(NamedTuple):
    id: str
    source_hourly: float
    target_hourly: float
    delta: float  # target minus source, USD/hour


class CostReport(NamedTuple):
    baseline_hourly: float
    target_hourly: float
    baseline_annual: float
    target_annual: float
    savings_fraction: float  # 1 - target_annual / baseline_annual
    hours_per_year: int
    per_workload: tuple[WorkloadCost, ...]


def project_costs(fleet: Fleet, catalog: Catalog, solution: AssignmentSolution,
                  hours_per_year: int = HOURS_PER_YEAR) -> CostReport:
    """Hourly and projected annual cost of the current fleet versus its assignment."""
    per_workload = []
    for w, target in zip(fleet.workloads, assigned_types(solution, catalog, len(fleet))):
        source = catalog.lookup(w.current_type).hourly_cost
        per_workload.append(WorkloadCost(
            w.id, source, target.hourly_cost, target.hourly_cost - source))
    baseline_hourly = _baseline_hourly(fleet, catalog)
    target_hourly = math.fsum(c.target_hourly for c in per_workload)
    baseline_annual = _annual(baseline_hourly, hours_per_year)
    target_annual = _annual(target_hourly, hours_per_year)
    return CostReport(
        baseline_hourly=baseline_hourly,
        target_hourly=target_hourly,
        baseline_annual=baseline_annual,
        target_annual=target_annual,
        savings_fraction=1.0 - target_annual / baseline_annual,
        hours_per_year=hours_per_year,
        per_workload=tuple(per_workload),
    )


class SweepCase(NamedTuple):
    delta: float
    total_hourly: float | None   # None when the case is infeasible
    total_annual: float | None
    infeasible_ids: tuple[str, ...]
    assignment: dict[str, str] | None  # workload id -> assigned type key


class BreakEven(NamedTuple):
    last_saving_delta: float
    first_exceeding_delta: float


class SweepResult(NamedTuple):
    cases: tuple[SweepCase, ...]
    break_even: BreakEven | None
    baseline_hourly: float
    baseline_annual: float
    hours_per_year: int


def run_sweep(fleet: Fleet, catalog: Catalog, deltas: Sequence[float] | None = None,
              hours_per_year: int = HOURS_PER_YEAR) -> SweepResult:
    """Solve one case per utilization factor with a uniform policy.

    One model is built, at the factor 1, and `solve_sweep` solves it at
    every factor in one pass, each row's scan over the columns resuming
    where the previous factor left it; every case equals `solve_exact` on
    the model built at its own factor. Factors must be strictly increasing
    and all >= 1; the 31-case default covers 1.0..4.0 in 0.1 steps. Cases
    with unplaceable workloads record the offending ids and no totals,
    without aborting the sweep; a workload that fits no column stays
    unplaceable at every larger factor. The break-even bracket is the pair
    of consecutive feasible factors between which total_annual first
    exceeds baseline_annual; it is absent when the baseline is never
    exceeded or is exceeded from the first feasible case.
    """
    sweep = default_sweep_deltas() if deltas is None else tuple(deltas)
    if not sweep:
        raise InvalidDeltasError("at least one utilization factor required")
    for delta in sweep:
        if not (math.isfinite(delta) and delta >= 1.0):
            raise InvalidDeltasError(f"factors must be finite and >= 1, got {delta}")
    for a, b in zip(sweep, sweep[1:]):
        if not b > a:
            raise InvalidDeltasError(f"factors must be strictly increasing, got {a} then {b}")

    baseline_hourly = _baseline_hourly(fleet, catalog)
    baseline_annual = _annual(baseline_hourly, hours_per_year)

    cases = []
    model = build_model(fleet, catalog, UtilizationPolicy.uniform(1.0))
    for delta, result in zip(sweep, solve_sweep(model, sweep)):
        if isinstance(result, Infeasible):
            cases.append(SweepCase(
                delta, None, None, tuple(r.workload_id for r in result.rows), None))
        else:
            assigned = {w.id: target.key for w, target in
                        zip(fleet.workloads, assigned_types(result, catalog, len(fleet)))}
            cases.append(SweepCase(
                delta, result.total_hourly_cost, _annual(result.total_hourly_cost, hours_per_year),
                (), assigned))

    break_even = None
    previous = None
    for case in cases:
        if case.total_annual is None:
            continue
        if case.total_annual > baseline_annual:
            if previous is not None:
                break_even = BreakEven(previous.delta, case.delta)
            break
        previous = case
    return SweepResult(tuple(cases), break_even, baseline_hourly, baseline_annual, hours_per_year)


class TTestResult(NamedTuple):
    t_statistic: float
    degrees_of_freedom: float
    variant: str = "student_pooled"


def t_test(sample_a: Sequence[float], sample_b: Sequence[float]) -> TTestResult:
    """Two-sample Student's t with pooled variance; df = n_a + n_b - 2.

    The sign follows mean_a - mean_b, so t < 0 when sample_a's mean is the
    smaller one. Raises DegenerateVarianceError when the pooled variance is
    zero while the means differ; zero variance with equal means gives t = 0.
    """
    import statistics  # here, so that a command without t-tests does not load it

    n_a, n_b = len(sample_a), len(sample_b)
    if n_a < 2 or n_b < 2:
        raise InsufficientSamplesError(f"each sample needs >= 2 values, got {n_a} and {n_b}")
    mean_a = statistics.mean(sample_a)
    mean_b = statistics.mean(sample_b)
    df = n_a + n_b - 2
    pooled = ((n_a - 1) * statistics.variance(sample_a)
              + (n_b - 1) * statistics.variance(sample_b)) / df
    if pooled == 0.0:
        if mean_a != mean_b:
            raise DegenerateVarianceError("pooled variance is zero but the means differ")
        return TTestResult(0.0, float(df))
    t = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / n_a + 1.0 / n_b))
    return TTestResult(t, float(df))


class WorkloadUtilization(NamedTuple):
    id: str
    source_cpu_util: float  # demand / capacity of the current type, 0..1
    target_cpu_util: float  # demand / capacity of the assigned type
    source_mem_util: float
    target_mem_util: float


class UtilizationMeans(NamedTuple):
    source_cpu: float
    target_cpu: float
    source_mem: float
    target_mem: float


class UtilizationReport(NamedTuple):
    per_workload: tuple[WorkloadUtilization, ...]
    means: UtilizationMeans
    cpu_ttest: TTestResult | None  # None when under two workloads or degenerate spread
    mem_ttest: TTestResult | None


def _safe_t_test(a: list[float], b: list[float]) -> TTestResult | None:
    try:
        return t_test(a, b)
    except (InsufficientSamplesError, DegenerateVarianceError):
        return None


def utilization_report(fleet: Fleet, catalog: Catalog,
                       solution: AssignmentSolution) -> UtilizationReport:
    """Demand/capacity fractions before and after reassignment, with t-tests."""
    import statistics  # see t_test

    rows = []
    for w, target in zip(fleet.workloads, assigned_types(solution, catalog, len(fleet))):
        current = catalog.lookup(w.current_type)
        rows.append(WorkloadUtilization(
            id=w.id,
            source_cpu_util=w.cpu_demand / current.cpu_capacity,
            target_cpu_util=w.cpu_demand / target.cpu_capacity,
            source_mem_util=w.mem_demand / current.mem_capacity,
            target_mem_util=w.mem_demand / target.mem_capacity,
        ))
    source_cpu = [r.source_cpu_util for r in rows]
    target_cpu = [r.target_cpu_util for r in rows]
    source_mem = [r.source_mem_util for r in rows]
    target_mem = [r.target_mem_util for r in rows]
    means = UtilizationMeans(
        statistics.mean(source_cpu), statistics.mean(target_cpu),
        statistics.mean(source_mem), statistics.mean(target_mem))
    return UtilizationReport(
        per_workload=tuple(rows),
        means=means,
        cpu_ttest=_safe_t_test(source_cpu, target_cpu),
        mem_ttest=_safe_t_test(source_mem, target_mem),
    )


class FlowEdge(NamedTuple):
    source_type: str
    target_type: str
    workload_count: int


class ConsolidationReport(NamedTuple):
    source_type_count: int
    target_type_count: int
    flow_edges: tuple[FlowEdge, ...]


def consolidation_report(fleet: Fleet, catalog: Catalog,
                         solution: AssignmentSolution) -> ConsolidationReport:
    """Distinct-type shrinkage and the source-to-target migration flow.

    Edge counts over all edges sum to the fleet size; edges are sorted by
    (source_type, target_type) for stable output.
    """
    edges: Counter[tuple[str, str]] = Counter()
    sources: set[str] = set()
    targets: set[str] = set()
    for w, target in zip(fleet.workloads, assigned_types(solution, catalog, len(fleet))):
        sources.add(w.current_type)
        targets.add(target.key)
        edges[(w.current_type, target.key)] += 1
    flow = tuple(FlowEdge(s, t, c) for (s, t), c in sorted(edges.items()))
    return ConsolidationReport(len(sources), len(targets), flow)
