"""Run the rightsizer CLI in-process with span-recording wrappers.

Usage: python3 perfbench/tracer.py SPANS_JSON RUN_ID -- CLI_ARGS...

The wrappers replace public functions at the names the CLI and the sweep
call them through, and are removed when the run ends. Each call becomes a
span (name, start, end, parent id, run id, ru_maxrss before and after, and
counts read from the return value after the clock stops). Spans stay in
memory and are written to SPANS_JSON when the run ends. A wrapped name that
the program no longer has is skipped and so reports zero calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time


def _model_counts(model) -> dict:
    rows, cols = model.row_count, model.column_count
    return {"cells": rows * cols, "feasible_cells": sum(map(sum, model.feasible))}


def _solve_counts(result) -> dict:
    return {"infeasible_rows": len(getattr(result, "rows", ()))}


def _export_counts(exported) -> dict:
    return {"bytes": len(exported.model_text.encode("utf-8"))
            + len(exported.data_text.encode("utf-8"))}


def _text_counts(result) -> dict:
    return {"bytes": len(result.encode("utf-8"))} if isinstance(result, str) else {}


# function name -> (span name, counter applied to its return value)
CLI_SPANS = {
    "load_catalog": ("catalog.load", None),
    "ingest_metrics": ("metrics.ingest", None),
    "load_bindings": ("metrics.bindings", None),
    "build_fleet": ("metrics.build_fleet", lambda fleet: {"series": 2 * len(fleet)}),
    "build_model": ("model.build", _model_counts),
    "solve_exact": ("solve.exact", _solve_counts),
    "run_sweep": ("analysis.sweep", None),
    "export_ampl": ("model.export", _export_counts),
    "project_costs": ("analysis.reports", None),
    "utilization_report": ("analysis.reports", None),
    "consolidation_report": ("analysis.reports", None),
}
ANALYSIS_SPANS = {name: CLI_SPANS[name] for name in ("build_model", "solve_exact")}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                      "run": self.run_id, "name": name, "function": fn.__name__}
            self.spans.append(record)
            self._stack.append(record["id"])
            record["rss_start_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                record["rss_end_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self._stack.pop()
            if counter is not None:
                try:
                    record["counts"] = counter(result)
                except (AttributeError, TypeError):
                    pass  # a refactored return type: the count is missing, not the run
            return result
        return wrapper

    def patch(self, module, spans: dict) -> None:
        for attr, (name, counter) in spans.items():
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.span(name, original, counter))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def traced_main(argv: list[str], tracer: Tracer) -> int:
    import rightsizer.analysis
    import rightsizer.cli
    import rightsizer.reports

    renderers = {name: (f"reports.{name}", _text_counts)
                 for name, fn in vars(rightsizer.reports).items()
                 if inspect.isfunction(fn) and fn.__module__ == rightsizer.reports.__name__
                 and not name.startswith("_")}
    tracer.patch(rightsizer.cli, CLI_SPANS)
    tracer.patch(rightsizer.analysis, ANALYSIS_SPANS)
    tracer.patch(rightsizer.reports, renderers)
    try:
        return tracer.span("cli.main", rightsizer.cli.main)(argv)
    finally:
        tracer.restore()


def main() -> int:
    spans_path, run_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON RUN_ID -- CLI_ARGS...")
    tracer = Tracer(run_id)
    code = traced_main(argv, tracer)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run": run_id, "exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
