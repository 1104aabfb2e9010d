"""Command-line front end: optimize, sweep, export-ampl, synth.

Exit codes: 0 success, 1 input/config error, 2 infeasible model (diagnostics
are still written). All output files are UTF-8 with LF line endings, and
identical inputs and flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from . import reports
from .analysis import consolidation_report, project_costs, run_sweep, utilization_report
from .catalog import load_catalog
from .errors import ConfigError, RightsizerError
from .metrics import build_fleet, ingest_metrics, load_bindings
from .model import UtilizationPolicy, build_model, export_ampl, load_policy
from .solve import Infeasible, solve_exact
from .synth import SynthSpec, generate

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2

DEFAULT_DELTA = 1.5
DEFAULT_SWEEP_SPEC = "1.0:4.0:0.1"
MAX_SWEEP_CASES = 10_000  # a spec asking for more is refused before its factors are built
FORMATS = ("json", "text", "csv")
_EXTENSIONS = {"json": "json", "text": "txt", "csv": "csv"}
# Each report as (file stem, plot CSV). The plot CSV is written in every
# --format from the same render as the report's own --format csv file.
_ASSIGNMENT = ("assignment", None)
_OPTIMIZE_REPORTS = (_ASSIGNMENT, ("cost_report", "plot_costs.csv"),
                     ("utilization_report", "plot_utilization.csv"),
                     ("consolidation_report", "plot_flow.csv"))
_SWEEP_REPORT = ("sweep_report", "plot_annual_cost.csv")
_CASE_FILE = re.compile(r"case-[0-9]+\.json")


def parse_sweep_spec(spec: str) -> tuple[float, ...]:
    """Expand 'start:end:step' into an inclusive, strictly increasing factor list."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep spec {spec!r} must be start:end:step")
    try:
        start, end, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"sweep spec {spec!r} has a non-numeric part") from None
    if not (math.isfinite(start) and math.isfinite(end) and math.isfinite(step)):
        raise ConfigError(f"sweep spec {spec!r} has a non-finite part")
    if start < 1.0:
        raise ConfigError("sweep start must be >= 1 (utilization factors are >= 1)")
    if step <= 0.0:
        raise ConfigError("sweep step must be > 0")
    if end < start:
        raise ConfigError("sweep end must be >= start")
    steps = (end - start) / step + 1e-9
    if not steps < MAX_SWEEP_CASES:  # also catches an overflow to inf
        raise ConfigError(f"sweep spec {spec!r} asks for more than {MAX_SWEEP_CASES} cases")
    factors = tuple(round(start + k * step, 10) for k in range(math.floor(steps) + 1))
    if len(set(factors)) < len(factors):
        raise ConfigError(f"sweep spec {spec!r} has factors that are equal once rounded to 10 decimals")
    return factors


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 means "infeasible" here,
    # so route usage errors through ConfigError -> exit 1 instead.
    def error(self, message):
        raise ConfigError(message)


def _at_least(convert, low, message: str):
    """An argparse type that converts the text and refuses a value below low or not finite."""
    def parse(text: str):
        value = convert(text)
        if not low <= value < math.inf:
            raise ConfigError(message.format(value))
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid float value: ..."
    return parse


_delta = _at_least(float, 1.0, "--delta must be finite and >= 1 (utilization factor), got {}")
_hours_per_year = _at_least(int, 1, "--hours-per-year must be >= 1, got {}")
_count = _at_least(int, 1, "--count must be >= 1, got {}")
_samples = _at_least(int, 2, "--samples must be >= 2, got {}")


def _load_inputs(args):
    with open(args.catalog, "rb") as fh:
        catalog = load_catalog(fh)
    with open(args.metrics, "rb") as fh:
        metrics = ingest_metrics(fh)
    with open(args.bindings, "rb") as fh:
        bindings = load_bindings(fh)
    return catalog, build_fleet(metrics, catalog, bindings)


def _load_model(args):
    catalog, fleet = _load_inputs(args)
    if args.policy:
        with open(args.policy, "rb") as fh:
            policy = load_policy(fh, default=args.delta)
    else:
        policy = UtilizationPolicy.uniform(args.delta)
    return catalog, fleet, build_model(fleet, catalog, policy)


def _write(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))


def _prepare_out(out_dir: Path, report_files, other_outputs: re.Pattern | None = None) -> None:
    # no output of an earlier run (infeasible, other format, longer sweep) may outlive this one
    names = {f"{stem}.{ext}" for stem, _ in report_files for ext in _EXTENSIONS.values()}
    names.update(plot for _, plot in report_files if plot)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in out_dir.iterdir():
        if path.name in names or (other_outputs and other_outputs.fullmatch(path.name)):
            path.unlink()


def _emit(out_dir: Path, fmt: str, files: tuple[str, str | None], report: reports.Report) -> None:
    # only the requested format is rendered, and the plot CSV is the CSV render
    stem, plot = files
    table_csv = reports.render_csv(report) if plot or fmt == "csv" else None
    if fmt == "json":
        text = reports.to_json(report.payload)
    elif fmt == "text":
        text = reports.render_text(report)
    else:
        text = table_csv
    _write(out_dir / f"{stem}.{_EXTENSIONS[fmt]}", text)
    if plot:
        _write(out_dir / plot, table_csv)


def cmd_optimize(args) -> int:
    catalog, fleet, model = _load_model(args)
    out, fmt = args.out, args.format
    _prepare_out(out, _OPTIMIZE_REPORTS)

    result = solve_exact(model)
    if isinstance(result, Infeasible):
        _emit(out, fmt, _ASSIGNMENT, reports.infeasible_spec(result, args.delta))
        ids = ", ".join(r.workload_id for r in result.rows)
        print(f"infeasible: no catalog type fits {ids} at the requested factor", file=sys.stderr)
        return EXIT_INFEASIBLE

    specs = (reports.assignment_spec(fleet, catalog, result, args.delta),
             reports.cost_spec(project_costs(fleet, catalog, result, args.hours_per_year)),
             reports.utilization_spec(utilization_report(fleet, catalog, result)),
             reports.consolidation_spec(consolidation_report(fleet, catalog, result)))
    for files, spec in zip(_OPTIMIZE_REPORTS, specs):
        _emit(out, fmt, files, spec)
    return EXIT_OK


def cmd_sweep(args) -> int:
    catalog, fleet = _load_inputs(args)
    result = run_sweep(fleet, catalog, args.sweep, args.hours_per_year)
    _prepare_out(args.out, [_SWEEP_REPORT], _CASE_FILE)

    _emit(args.out, args.format, _SWEEP_REPORT, reports.sweep_spec(result))
    for k, case in enumerate(result.cases, start=1):
        _write(args.out / f"case-{k}.json", reports.to_json(reports.sweep_case_payload(k, case)))
    return EXIT_OK


def cmd_export_ampl(args) -> int:
    _, _, model = _load_model(args)
    exported = export_ampl(model)
    args.out.mkdir(parents=True, exist_ok=True)
    _write(args.out / "model.mod", exported.model_text)
    _write(args.out / "model.dat", exported.data_text)
    return EXIT_OK


def cmd_synth(args) -> int:
    with open(args.catalog, "rb") as fh:
        catalog = load_catalog(fh)
    output = generate(SynthSpec(args.seed, args.count, args.samples, catalog))
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "metrics.csv").write_bytes(output.metrics_csv)
    (args.out / "bindings.csv").write_bytes(output.bindings_csv)
    return EXIT_OK


def _add_inputs(parser) -> None:
    parser.add_argument("--catalog", required=True, help="catalog CSV path")
    parser.add_argument("--metrics", required=True, help="metrics CSV path")
    parser.add_argument("--bindings", required=True, help="bindings CSV path")
    parser.add_argument("--out", type=Path, required=True, help="output directory")


def _add_report_flags(parser) -> None:
    parser.add_argument("--hours-per-year", type=_hours_per_year, default=8760, dest="hours_per_year",
                        help="hours used for annual projections (default 8760)")
    parser.add_argument("--format", choices=FORMATS, default="json",
                        help="report rendering (default json)")


def _add_factor_flags(parser) -> None:
    parser.add_argument("--policy", help="per-workload factor CSV (workload_id,delta)")
    parser.add_argument("--delta", type=_delta, default=DEFAULT_DELTA,
                        help=f"uniform utilization factor, >= 1 (default {DEFAULT_DELTA})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rightsizer",
                     description="Assign cloud workloads to the cheapest instance types "
                                 "that fit their observed demand.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="solve one assignment and write reports")
    _add_inputs(p)
    _add_report_flags(p)
    _add_factor_flags(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="solve one case per utilization factor")
    _add_inputs(p)
    _add_report_flags(p)
    p.add_argument("--sweep", type=parse_sweep_spec, default=DEFAULT_SWEEP_SPEC,
                   metavar="START:END:STEP",
                   help=f"factor range (default {DEFAULT_SWEEP_SPEC}, 31 cases)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-ampl", help="write the model/data files for an external solver")
    _add_inputs(p)
    _add_factor_flags(p)
    p.set_defaults(func=cmd_export_ampl)

    p = sub.add_parser("synth", help="generate deterministic synthetic metrics and bindings")
    p.add_argument("--catalog", required=True, help="catalog CSV path")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_count, default=8, help="number of workloads")
    p.add_argument("--samples", type=_samples, default=24, help="samples per series")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (RightsizerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
