"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from helpers import model_for, one_workload_fleet, random_trial_model
from rightsizer import (
    AssignmentSolution,
    Catalog,
    Fleet,
    Infeasible,
    InstanceType,
    SynthSpec,
    WorkloadProfile,
    build_fleet,
    compute_demand_stats,
    consolidation_report,
    export_ampl,
    generate,
    ingest_metrics,
    load_bindings,
    load_catalog,
    project_costs,
    run_sweep,
    solve_bruteforce,
    solve_exact,
    t_test,
    validate_solution,
)
from rightsizer.cli import main

DATA = Path(__file__).parent / "data"
TRIAL_SEED = 20260811
TRIAL_COUNT = 1000


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL  {label}")
        raise
    print(f"ACCEPTANCE {number} PASS  {label}")


def trial_models():
    rng = random.Random(TRIAL_SEED)
    for _ in range(TRIAL_COUNT):
        yield random_trial_model(rng)


def test_criterion_1_oracle_equivalence():
    with criterion(1, "solve_exact equals solve_bruteforce on 1000 seeded models in < 10 s"):
        started = time.perf_counter()
        checked = 0
        for model in trial_models():
            exact = solve_exact(model)
            brute = solve_bruteforce(model)
            assert exact == brute  # identical assignments and bit-identical totals
            checked += 1
        elapsed = time.perf_counter() - started
        assert checked == TRIAL_COUNT
        assert elapsed < 10.0, f"oracle run took {elapsed:.2f} s"


def test_criterion_2_constraint_satisfaction():
    with criterion(2, "validate_solution finds no violations across the trial stream"):
        solved = 0
        for model in trial_models():
            result = solve_exact(model)
            if isinstance(result, Infeasible):
                continue
            assert validate_solution(model, result) == []
            solved += 1
        assert solved > 0


def test_criterion_3_sweep_monotonicity():
    with criterion(3, "31-case sweep on a 108-workload synthetic fleet is monotone in < 5 s"):
        catalog = load_catalog(DATA.joinpath("catalog.csv").read_bytes())
        output = generate(SynthSpec(seed=2026, workload_count=108,
                                    samples_per_series=100, catalog=catalog))
        fleet = build_fleet(
            ingest_metrics(output.metrics_csv), catalog, load_bindings(output.bindings_csv))
        assert len(fleet) == 108
        started = time.perf_counter()
        result = run_sweep(fleet, catalog)
        elapsed = time.perf_counter() - started
        assert len(result.cases) == 31
        totals = [c.total_hourly for c in result.cases if c.total_hourly is not None]
        assert len(totals) >= 2, "too few feasible cases to exercise monotonicity"
        for a, b in zip(totals, totals[1:]):
            assert b >= a
        assert elapsed < 5.0, f"sweep took {elapsed:.2f} s"


def test_criterion_4_annual_projection_anchor():
    with criterion(4, "21.09/h -> 184,748.40/y and 10.15/h -> 88,914.00/y, savings 0.5187"):
        catalog = Catalog((
            InstanceType("os.big.x.r1", 4.0, 8.0, 21.09),
            InstanceType("os.small.y.r1", 4.0, 8.0, 10.15),
        ))
        fleet = Fleet((WorkloadProfile("w1", "os.big.x.r1", 1.0, 2.0),))
        report = project_costs(fleet, catalog, AssignmentSolution((2,), 10.15),
                               hours_per_year=8760)
        assert report.baseline_annual == pytest.approx(184748.40, abs=1e-6)
        assert report.target_annual == pytest.approx(88914.00, abs=1e-6)
        assert report.savings_fraction == pytest.approx(0.5187, abs=0.0005)


def test_criterion_5_demand_statistics():
    with criterion(5, "demand stats exact on [10,20,30]; clamp engages on [90,100,98,96]"):
        stats = compute_demand_stats([10.0, 20.0, 30.0])
        assert stats.mean_pct == 20.0
        assert stats.stddev_pct == 10.0
        assert stats.demand_pct == 40.0
        clamped = compute_demand_stats([90.0, 100.0, 98.0, 96.0])
        assert clamped.demand_pct == 100.0


def test_criterion_6_t_test():
    with criterion(6, "t([0.1,0.3],[0.4,0.6]) = -2.1213, df 2; t=0 on identical; antisymmetry"):
        hand = t_test([0.1, 0.3], [0.4, 0.6])
        assert hand.t_statistic == pytest.approx(-2.1213, abs=0.0001)
        assert hand.degrees_of_freedom == 2
        same = t_test([0.2, 0.5, 0.9], [0.2, 0.5, 0.9])
        assert same.t_statistic == 0.0
        rng = random.Random(606)
        for _ in range(100):
            a = [rng.uniform(0, 1) for _ in range(rng.randint(2, 10))]
            b = [rng.uniform(0, 1) for _ in range(rng.randint(2, 10))]
            assert t_test(a, b).t_statistic == -t_test(b, a).t_statistic


def test_criterion_7_ampl_export_golden():
    with criterion(7, "export carries the fixed objective/constraint lines and is byte-stable"):
        model = model_for(one_workload_fleet(), Catalog((
            InstanceType("lin.a.small.r1", 2.0, 4.0, 0.10),
            InstanceType("lin.b.medium.r1", 4.0, 8.0, 0.20),
            InstanceType("lin.c.large.r1", 8.0, 16.0, 0.40),
        )), 1.5)
        first = export_ampl(model)
        assert "minimize Total_Cost:" in first.model_text
        assert "subject to Total{i in SERV}:" in first.model_text
        assert "param d" in first.model_text
        second = export_ampl(model)
        assert first.model_text.encode() == second.model_text.encode()
        assert first.data_text.encode() == second.data_text.encode()


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "synth(42) + default sweep twice gives byte-identical trees; bracket holds"):
        catalog_path = DATA / "catalog.csv"
        trees = []
        reports = []
        for run in ("first", "second"):
            base = tmp_path / run
            data_dir = base / "data"
            report_dir = base / "report"
            assert main(["synth", "--catalog", str(catalog_path), "--seed", "42",
                         "--count", "108", "--samples", "50", "--out", str(data_dir)]) == 0
            assert main(["sweep", "--catalog", str(catalog_path),
                         "--metrics", str(data_dir / "metrics.csv"),
                         "--bindings", str(data_dir / "bindings.csv"),
                         "--out", str(report_dir)]) == 0
            tree = {}
            for path in sorted(base.rglob("*")):
                if path.is_file():
                    tree[str(path.relative_to(base))] = path.read_bytes()
            trees.append(tree)
            reports.append(json.loads((report_dir / "sweep_report.json").read_text()))
        assert trees[0] == trees[1]

        report = reports[0]
        if report["break_even"] is not None:
            low = report["break_even"]["last_saving_delta"]
            high = report["break_even"]["first_exceeding_delta"]
            by_delta = {c["delta"]: c for c in report["cases"]}
            baseline = report["baseline_annual"]
            assert by_delta[low]["total_annual"] <= baseline < by_delta[high]["total_annual"]


def test_criterion_9_consolidation_accounting():
    with criterion(9, "flow edges sum to M and target count equals distinct assigned types"):
        checked = 0
        rng = random.Random(909)
        for _ in range(300):
            model = random_trial_model(rng)
            result = solve_exact(model)
            if isinstance(result, Infeasible):
                continue
            report = consolidation_report(model.fleet, model.catalog, result)
            assert sum(e.workload_count for e in report.flow_edges) == len(model.fleet.workloads)
            assigned = {model.catalog.entries[j - 1].key for j in result.columns}
            assert report.target_type_count == len(assigned)
            checked += 1
        assert checked > 0
