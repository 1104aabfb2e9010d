"""Report serialization: stable JSON, aligned-column text, and CSV.

Each artifact is declared once as a `Report`: its JSON payload, the title
and summary lines of its text form, its rows, and its columns. A column
holds its text header, its CSV header, a row getter and a text-cell format,
so `render_text` and `render_csv` can write any report; the CSV form of a
report is also its plot CSV.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Callable, Sequence

from .analysis import (
    ConsolidationReport,
    CostReport,
    SweepResult,
    TTestResult,
    UtilizationReport,
)
from .catalog import Catalog
from .metrics import Fleet
from .solve import AssignmentSolution, Infeasible, assigned_types


def _fields(value) -> dict[str, Any]:
    # json's hook for what it cannot encode itself: a report dataclass becomes its fields
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


def to_json(payload) -> str:
    """Deterministic JSON rendering of a report dataclass or plain structure."""
    return json.dumps(payload, indent=2, default=_fields) + "\n"


@dataclass(frozen=True)
class Column:
    """One report column; without a text header it is CSV-only, without a CSV header text-only."""

    text: str | None
    csv: str | None
    get: Callable[[Any], Any]  # row -> value; the CSV writes it as is, None as an empty cell
    cell: Callable[[Any], str] = str  # value -> text cell
    left: bool = False  # text alignment; right-aligned otherwise


@dataclass(frozen=True)
class Report:
    """One artifact: its JSON payload, and the text and CSV forms its columns declare."""

    payload: Any  # what `to_json` writes for --format json
    title: str
    summary: tuple[str, ...]  # text lines between the title and the table
    rows: Sequence
    columns: tuple[Column, ...]


def render_text(report: Report) -> str:
    """The title, the indented summary lines and an aligned table of the text columns."""
    columns = [c for c in report.columns if c.text is not None]
    table = [[c.text for c in columns]]
    table += [[c.cell(c.get(row)) for c in columns] for row in report.rows]
    widths = [max(map(len, cells)) for cells in zip(*table)]
    lines = [report.title, *(f"  {line}" for line in report.summary), ""]
    for cells in table:
        lines.append("  ".join(cell.ljust(width) if c.left else cell.rjust(width)
                               for c, cell, width in zip(columns, cells, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    """The CSV columns' headers, then one line of raw values per row."""
    columns = [c for c in report.columns if c.csv is not None]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([c.csv for c in columns])
    writer.writerows([c.get(row) for c in columns] for row in report.rows)
    return buf.getvalue()


def _percent(fraction: float) -> str:
    return f"{100.0 * fraction:.2f}"


def _dash_or(cell: Callable[[Any], str]) -> Callable[[Any], str]:
    # an infeasible sweep case has no totals
    return lambda value: "-" if value is None else cell(value)


def _factor(delta: float) -> str:
    # `:g` keeps six significant digits and so can print two factors alike;
    # it labels a factor only when its text reads back as the same float
    label = f"{delta:g}"
    return label if float(label) == delta else repr(delta)


def _ttest_line(result: TTestResult | None) -> str:
    if result is None:
        return "not computed"
    return f"t = {result.t_statistic:.4f}, df = {result.degrees_of_freedom:g} ({result.variant})"


def cost_spec(report: CostReport) -> Report:
    return Report(
        payload=report,
        title="cost report",
        summary=(
            f"hours per year   {report.hours_per_year}",
            f"baseline hourly  {report.baseline_hourly:.4f} USD/h",
            f"target hourly    {report.target_hourly:.4f} USD/h",
            f"baseline annual  {report.baseline_annual:.2f} USD/y",
            f"target annual    {report.target_annual:.2f} USD/y",
            f"savings          {100.0 * report.savings_fraction:.2f} %",
        ),
        rows=report.per_workload,
        columns=(
            Column("workload", "workload_id", attrgetter("id"), left=True),
            Column("source $/h", "source_hourly", attrgetter("source_hourly"), "{:.4f}".format),
            Column("target $/h", "target_hourly", attrgetter("target_hourly"), "{:.4f}".format),
            Column("delta $/h", "delta", attrgetter("delta"), "{:+.4f}".format),
        ))


def utilization_spec(report: UtilizationReport) -> Report:
    m = report.means
    return Report(
        payload=report,
        title="utilization report",
        summary=(
            f"mean cpu util    {100.0 * m.source_cpu:.2f} % -> {100.0 * m.target_cpu:.2f} %",
            f"mean mem util    {100.0 * m.source_mem:.2f} % -> {100.0 * m.target_mem:.2f} %",
            f"cpu t-test       {_ttest_line(report.cpu_ttest)}",
            f"mem t-test       {_ttest_line(report.mem_ttest)}",
        ),
        rows=report.per_workload,
        columns=(
            Column("workload", "workload_id", attrgetter("id"), left=True),
            Column("src cpu %", "source_cpu_util", attrgetter("source_cpu_util"), _percent),
            Column("tgt cpu %", "target_cpu_util", attrgetter("target_cpu_util"), _percent),
            Column("src mem %", "source_mem_util", attrgetter("source_mem_util"), _percent),
            Column("tgt mem %", "target_mem_util", attrgetter("target_mem_util"), _percent),
        ))


def consolidation_spec(report: ConsolidationReport) -> Report:
    return Report(
        payload=report,
        title="consolidation report",
        summary=(
            f"source types  {report.source_type_count}",
            f"target types  {report.target_type_count}",
        ),
        rows=report.flow_edges,
        columns=(
            Column("source_type", "source_type", attrgetter("source_type"), left=True),
            Column("target_type", "target_type", attrgetter("target_type"), left=True),
            Column("workloads", "workload_count", attrgetter("workload_count")),
        ))


def sweep_spec(result: SweepResult) -> Report:
    """The sweep summary; per-case assignments live in the case files."""
    if result.break_even is None:
        break_even = "not reached"
    else:
        break_even = (f"between {_factor(result.break_even.last_saving_delta)} "
                      f"and {_factor(result.break_even.first_exceeding_delta)}")
    return Report(
        payload={
            "hours_per_year": result.hours_per_year,
            "baseline_hourly": result.baseline_hourly,
            "baseline_annual": result.baseline_annual,
            "break_even": None if result.break_even is None else {
                "last_saving_delta": result.break_even.last_saving_delta,
                "first_exceeding_delta": result.break_even.first_exceeding_delta,
            },
            "cases": [
                {
                    "delta": c.delta,
                    "total_hourly": c.total_hourly,
                    "total_annual": c.total_annual,
                    "infeasible_ids": list(c.infeasible_ids),
                }
                for c in result.cases
            ],
        },
        title="sweep report",
        summary=(
            f"hours per year   {result.hours_per_year}",
            f"baseline hourly  {result.baseline_hourly:.4f} USD/h",
            f"baseline annual  {result.baseline_annual:.2f} USD/y",
            f"break-even       {break_even}",
        ),
        rows=result.cases,
        columns=(
            Column("delta", "delta", attrgetter("delta"), _factor),
            Column("total $/h", "total_hourly", attrgetter("total_hourly"), _dash_or("{:.4f}".format)),
            Column("total $/y", "total_annual", attrgetter("total_annual"), _dash_or("{:.2f}".format)),
            Column("unplaceable", None, lambda case: ",".join(case.infeasible_ids), left=True),
            Column(None, "baseline_annual", lambda case: result.baseline_annual),
        ))


def sweep_case_payload(case_number: int, case) -> dict:
    return {
        "case": case_number,
        "delta": case.delta,
        "status": "optimal" if case.total_hourly is not None else "infeasible",
        "total_hourly": case.total_hourly,
        "total_annual": case.total_annual,
        "infeasible_ids": list(case.infeasible_ids),
        "assignment": case.assignment,
    }


def assignment_spec(fleet: Fleet, catalog: Catalog, solution: AssignmentSolution,
                    default_delta: float) -> Report:
    records = [{
        "workload_id": w.id,
        "current_type": w.current_type,
        "target_type": target.key,
        "target_hourly": target.hourly_cost,
    } for w, target in zip(fleet.workloads, assigned_types(solution, catalog, len(fleet)))]
    return Report(
        payload={
            "status": "optimal",
            "default_delta": default_delta,
            "total_hourly_cost": solution.total_hourly_cost,
            "assignments": records,
        },
        title="assignment",
        summary=(f"total hourly cost  {solution.total_hourly_cost:.4f} USD/h",),
        rows=records,
        columns=(
            Column("workload", "workload_id", itemgetter("workload_id"), left=True),
            Column("current type", "current_type", itemgetter("current_type"), left=True),
            Column("target type", "target_type", itemgetter("target_type"), left=True),
            Column("target $/h", "target_hourly", itemgetter("target_hourly"), "{:.4f}".format),
        ))


def infeasible_spec(result: Infeasible, default_delta: float) -> Report:
    return Report(
        payload={
            "status": "infeasible",
            "default_delta": default_delta,
            "infeasible": [
                {
                    "workload_id": r.workload_id,
                    "cpu_required": r.cpu_required,
                    "mem_required": r.mem_required,
                }
                for r in result.rows
            ],
        },
        title="assignment",
        summary=("status: infeasible (no catalog type fits the scaled demand)",),
        rows=result.rows,
        columns=(
            Column("workload", "workload_id", attrgetter("workload_id"), left=True),
            Column("needs ECU", "cpu_required", attrgetter("cpu_required"), "{:.4f}".format),
            Column("needs GiB", "mem_required", attrgetter("mem_required"), "{:.4f}".format),
        ))
