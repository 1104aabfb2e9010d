"""Command-line front end: optimize, sweep, export-ampl, synth.

Exit codes: 0 success, 1 input/config error, 2 infeasible model (diagnostics
are still written). All output files are UTF-8 with LF line endings, and
identical inputs and flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from ._csvio import plain
from .catalog import HOURS_PER_YEAR, load_catalog
from .errors import ConfigError, RightsizerError
from .metrics import build_fleet, ingest_metrics, load_bindings
from .model import (
    DEFAULT_SWEEP_SPEC,
    MAX_SWEEP_CASES,  # noqa: F401  (re-exported for callers of rightsizer.cli)
    UtilizationPolicy,
    build_model,
    export_ampl,
    load_policy,
    parse_sweep_spec,
)

# The layers that only some commands run, each with the names this module
# calls it by (a layer's own name is its module). A command binds the names
# of its layers with `_use` before it calls them, so no command loads a
# layer it does not run. A name that is already bound keeps its value, so
# a wrapper set on this module beforehand stays in place.
_LAYERS = {
    "analysis": ("consolidation_report", "project_costs", "run_sweep", "utilization_report"),
    "reports": ("reports",),
    "solve": ("Infeasible", "solve_exact"),
    "synth": ("SynthSpec", "generate_parts"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}


def _use(*layers: str) -> None:
    """Bind every name of `layers` in this module that is not bound yet."""
    from importlib import import_module

    names = globals()
    for layer in layers:
        module = import_module(f".{layer}", __package__)
        for name in _LAYERS[layer]:
            names.setdefault(name, module if name == layer else getattr(module, name))


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _use(layer)
    return globals()[name]


EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2

DEFAULT_DELTA = 1.5
FORMATS = ("json", "text", "csv")
# Each report as (file stem, CSV name). Its CSV is written in every --format;
# json and text add <stem>.json or <stem>.txt beside it, and csv adds nothing.
_ASSIGNMENT = ("assignment", "assignment.csv")
_OPTIMIZE_REPORTS = (_ASSIGNMENT, ("cost_report", "plot_costs.csv"),
                     ("utilization_report", "plot_utilization.csv"),
                     ("consolidation_report", "plot_flow.csv"))
_SWEEP_REPORT = ("sweep_report", "plot_annual_cost.csv")
_CASE_FILE = re.compile(r"case-[0-9]+\.json")


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 means "infeasible" here,
    # so route usage errors through ConfigError -> exit 1 instead.
    def error(self, message):
        raise ConfigError(message)


def _plain(convert):
    """An argparse type that converts the text only when it is plain (`_csvio.plain`)."""
    def parse(text: str):
        if not plain(text):
            raise ValueError(text)
        return convert(text)
    parse.__name__ = convert.__name__  # argparse names it in "invalid float value: ..."
    return parse


def _at_least(convert, low, message: str):
    """An argparse type that converts plain text and refuses a value below low or not finite."""
    convert = _plain(convert)

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


def _sweep_spec(text: str) -> tuple[float, ...]:
    """`parse_sweep_spec` as an argparse type, so its refusal names --sweep."""
    try:
        return parse_sweep_spec(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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


def _write(out_dir: str, name: str, *parts: str) -> None:
    # parts are written in order and never joined, so a large file is not held twice
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
        fh.writelines(parts)


def _prepare_out(out_dir: str, report_files, other_outputs: re.Pattern | None = None) -> None:
    # no output of an earlier run (infeasible, other format, older layout,
    # longer sweep) may outlive this one
    names = {f"{stem}.{ext}" for stem, _ in report_files for ext in ("json", "txt", "csv")}
    names.update(csv_name for _, csv_name in report_files)
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        if name in names or (other_outputs and other_outputs.fullmatch(name)):
            os.unlink(os.path.join(out_dir, name))


def _emit(out_dir: str, fmt: str, files: tuple[str, str], report: reports.Report) -> None:
    # the CSV is written once, in every format; only the requested other form is rendered
    stem, csv_name = files
    _write(out_dir, csv_name, reports.render_csv(report))
    if fmt == "json":
        _write(out_dir, f"{stem}.json", reports.to_json(report.payload))
    elif fmt == "text":
        _write(out_dir, f"{stem}.txt", reports.render_text(report))


def cmd_optimize(args) -> int:
    _use("analysis", "reports", "solve")
    catalog, fleet, model = _load_model(args)
    out, fmt = args.out, args.format
    _prepare_out(out, _OPTIMIZE_REPORTS)

    result = solve_exact(model)
    if isinstance(result, Infeasible):
        _emit(out, fmt, _ASSIGNMENT, reports.infeasible_spec(result, args.delta))
        ids = ", ".join(r.workload_id for r in result.rows)
        print(f"infeasible: no catalog type fits {ids} at the requested factor", file=sys.stderr)
        return EXIT_INFEASIBLE

    costs = project_costs(fleet, catalog, result, args.hours_per_year)
    utilization = utilization_report(fleet, catalog, result)
    specs = (reports.assignment_spec(fleet, catalog, result, costs, utilization, args.delta),
             reports.cost_spec(costs),
             reports.utilization_spec(utilization),
             reports.consolidation_spec(consolidation_report(fleet, catalog, result)))
    for files, spec in zip(_OPTIMIZE_REPORTS, specs):
        _emit(out, fmt, files, spec)
    return EXIT_OK


def cmd_sweep(args) -> int:
    _use("analysis", "reports")
    catalog, fleet = _load_inputs(args)
    result = run_sweep(fleet, catalog, args.sweep, args.hours_per_year)
    _prepare_out(args.out, [_SWEEP_REPORT], _CASE_FILE)

    _emit(args.out, args.format, _SWEEP_REPORT, reports.sweep_spec(result))
    for k, case in enumerate(result.cases, start=1):
        _write(args.out, f"case-{k}.json", reports.to_json(reports.sweep_case_payload(k, case)))
    return EXIT_OK


def cmd_export_ampl(args) -> int:
    _, _, model = _load_model(args)
    exported = export_ampl(model)
    os.makedirs(args.out, exist_ok=True)
    _write(args.out, "model.mod", exported.model_text)
    _write(args.out, "model.dat", *exported.data_parts)
    return EXIT_OK


def cmd_synth(args) -> int:
    _use("synth")
    with open(args.catalog, "rb") as fh:
        catalog = load_catalog(fh)
    metrics_parts, bindings_csv = generate_parts(SynthSpec(args.seed, args.count, args.samples, catalog))
    os.makedirs(args.out, exist_ok=True)
    # as in `_write`, the parts are written in order and never joined
    for name, parts in (("metrics.csv", metrics_parts), ("bindings.csv", (bindings_csv,))):
        with open(os.path.join(args.out, name), "wb") as fh:
            fh.writelines(parts)
    return EXIT_OK


def _add_inputs(parser) -> None:
    parser.add_argument("--catalog", required=True, help="catalog CSV path")
    parser.add_argument("--metrics", required=True, help="metrics CSV path")
    parser.add_argument("--bindings", required=True, help="bindings CSV path")
    parser.add_argument("--out", required=True, help="output directory")


def _add_report_flags(parser) -> None:
    parser.add_argument("--hours-per-year", type=_hours_per_year, default=HOURS_PER_YEAR, dest="hours_per_year",
                        help=f"hours used for annual projections (default {HOURS_PER_YEAR})")
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
    p.add_argument("--sweep", type=_sweep_spec, default=DEFAULT_SWEEP_SPEC,
                   metavar="START:END:STEP",
                   help=f"factor range (default {DEFAULT_SWEEP_SPEC}, 31 cases)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-ampl", help="write the model/data files for an external solver")
    _add_inputs(p)
    _add_factor_flags(p)
    p.set_defaults(func=cmd_export_ampl)

    p = sub.add_parser("synth", help="generate deterministic synthetic metrics and bindings")
    p.add_argument("--catalog", required=True, help="catalog CSV path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_plain(int), default=0)
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
