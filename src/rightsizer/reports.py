"""Report serialization: stable JSON, aligned-column text, and CSV.

Each artifact is declared once as a `Report`: its JSON payload, the title
and summary lines of its text form, its rows, and its columns. A column
holds its text header, its CSV header, a row getter and a text-cell format,
so `render_text` and `render_csv` can write any report. The assignment is
the one per-workload table; the cost and utilization reports hold the
fleet's figures, and their CSV forms one row of them.
"""

from __future__ import annotations

import json
from operator import attrgetter, itemgetter
from typing import Any, Callable, NamedTuple, Sequence

from ._csvio import csv_text
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


def to_json(payload) -> str:
    """Deterministic JSON rendering of a payload of dicts, lists, tuples and scalars."""
    return json.dumps(payload, indent=2) + "\n"


class Column(NamedTuple):
    """One report column; without a text header it is CSV-only, without a CSV header text-only."""

    text: str | None
    csv: str | None
    get: Callable[[Any], Any]  # row -> value; the CSV writes it as is, None as an empty cell
    cell: Callable[[Any], str] = str  # value -> text cell
    left: bool = False  # text alignment; right-aligned otherwise


class Report(NamedTuple):
    """One artifact: its JSON payload, and the text and CSV forms its columns declare."""

    # what `to_json` writes for --format json: dicts, lists, tuples and
    # scalars; json writes a NamedTuple record as an array, so a record goes
    # in as a dict (`_fields`)
    payload: Any
    title: str
    summary: tuple[str, ...]  # text lines between the title and the table
    rows: Sequence
    columns: tuple[Column, ...]


def render_text(report: Report) -> str:
    """The title, the indented summary lines and an aligned table of the text columns, if any."""
    lines = [report.title, *(f"  {line}" for line in report.summary)]
    columns = [c for c in report.columns if c.text is not None]
    if columns:
        table = [[c.text for c in columns]]
        table += [[c.cell(c.get(row)) for c in columns] for row in report.rows]
        widths = [max(map(len, cells)) for cells in zip(*table)]
        lines.append("")
        for cells in table:
            lines.append("  ".join(cell.ljust(width) if c.left else cell.rjust(width)
                                   for c, cell, width in zip(columns, cells, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    """The CSV columns' headers, then one line of raw values per row."""
    columns = [c for c in report.columns if c.csv is not None]
    return csv_text([c.csv for c in columns], ([c.get(row) for c in columns] for row in report.rows))


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


def _ttest_payload(result: TTestResult | None) -> dict | None:
    return None if result is None else result._asdict()


def _ttest_line(result: TTestResult | None) -> str:
    if result is None:
        return "not computed"
    return f"t = {result.t_statistic:.4f}, df = {result.degrees_of_freedom:g} ({result.variant})"


def _fields(record: NamedTuple, dropped: str) -> dict:
    """A record's fields by name, in order, without `dropped`."""
    fields = record._asdict()
    del fields[dropped]
    return fields


def _fleet_level(payload: dict, title: str, summary: tuple[str, ...], fields: dict) -> Report:
    # no text table; the CSV is one row, with a column per field
    return Report(payload, title, summary, (fields,),
                  tuple(Column(None, name, itemgetter(name)) for name in fields))


def cost_spec(report: CostReport) -> Report:
    fields = _fields(report, "per_workload")
    return _fleet_level(fields, "cost report", (
        f"hours per year   {report.hours_per_year}",
        f"baseline hourly  {report.baseline_hourly:.4f} USD/h",
        f"target hourly    {report.target_hourly:.4f} USD/h",
        f"baseline annual  {report.baseline_annual:.2f} USD/y",
        f"target annual    {report.target_annual:.2f} USD/y",
        f"savings          {100.0 * report.savings_fraction:.2f} %",
    ), fields)


def _ttest_cells(name: str, result: TTestResult | None) -> dict:
    # a t-test that was not computed leaves its cells empty
    return {f"{name}_{field}": None if result is None else getattr(result, field)
            for field in TTestResult._fields}


def utilization_spec(report: UtilizationReport) -> Report:
    m = report.means
    payload = {"means": m._asdict(), "cpu_ttest": _ttest_payload(report.cpu_ttest),
               "mem_ttest": _ttest_payload(report.mem_ttest)}
    return _fleet_level(payload, "utilization report", (
        f"mean cpu util    {100.0 * m.source_cpu:.2f} % -> {100.0 * m.target_cpu:.2f} %",
        f"mean mem util    {100.0 * m.source_mem:.2f} % -> {100.0 * m.target_mem:.2f} %",
        f"cpu t-test       {_ttest_line(report.cpu_ttest)}",
        f"mem t-test       {_ttest_line(report.mem_ttest)}",
    ), {**{f"mean_{name}": value for name, value in m._asdict().items()},
        **_ttest_cells("cpu", report.cpu_ttest), **_ttest_cells("mem", report.mem_ttest)})


def consolidation_spec(report: ConsolidationReport) -> Report:
    return Report(
        payload={**report._asdict(), "flow_edges": [e._asdict() for e in report.flow_edges]},
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
            "break_even": None if result.break_even is None else result.break_even._asdict(),
            "cases": [_fields(c, "assignment") for c in result.cases],
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
                    costs: CostReport, utilization: UtilizationReport, default_delta: float) -> Report:
    """The per-workload table: types, and the prices and utilizations `costs` and `utilization` hold."""
    records = [{"workload_id": w.id, "current_type": w.current_type, "target_type": target.key,
                **_fields(cost, "id"), **_fields(util, "id")}
               for w, target, cost, util in zip(fleet.workloads, assigned_types(solution, catalog, len(fleet)),
                                                costs.per_workload, utilization.per_workload, strict=True)]
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
            Column("source $/h", "source_hourly", itemgetter("source_hourly"), "{:.4f}".format),
            Column("target $/h", "target_hourly", itemgetter("target_hourly"), "{:.4f}".format),
            Column("delta $/h", "delta", itemgetter("delta"), "{:+.4f}".format),
            Column("src cpu %", "source_cpu_util", itemgetter("source_cpu_util"), _percent),
            Column("tgt cpu %", "target_cpu_util", itemgetter("target_cpu_util"), _percent),
            Column("src mem %", "source_mem_util", itemgetter("source_mem_util"), _percent),
            Column("tgt mem %", "target_mem_util", itemgetter("target_mem_util"), _percent),
        ))


def infeasible_spec(result: Infeasible, default_delta: float) -> Report:
    return Report(
        payload={
            "status": "infeasible",
            "default_delta": default_delta,
            "infeasible": [_fields(r, "row") for r in result.rows],
        },
        title="assignment",
        summary=("status: infeasible (no catalog type fits the scaled demand)",),
        rows=result.rows,
        columns=(
            Column("workload", "workload_id", attrgetter("workload_id"), left=True),
            Column("needs ECU", "cpu_required", attrgetter("cpu_required"), "{:.4f}".format),
            Column("needs GiB", "mem_required", attrgetter("mem_required"), "{:.4f}".format),
        ))
