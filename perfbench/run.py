"""Benchmark for the rightsizer CLI.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's CSV inputs from the seed, then runs the real CLI
(`python -m rightsizer.cli ...` from the checkout's `src/`) as one child
process at a time for S seconds, after one unmeasured warm-up run. Each
child's wall time, CPU time and peak RSS come from `os.wait4` in a small
launcher process (launch.py). Every output tree is checked against an
independent reference (oracle.py); any child that exits non-zero or writes
a wrong or differing tree counts as failed.

With --trace 1 it alternates untraced runs with runs of the CLI in-process
under span-recording wrappers (tracer.py), and reports per-layer metrics
instead of end-to-end ones. The last line of stdout is one JSON object:
correct, attempted, failed, metrics. A full record of the run, with the
environment at its start and end, goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import oracle
from inputs import WORKLOADS, cli_args, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 2.0
CHILD_TIMEOUT_S = 90


@dataclass(frozen=True)
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def run_child(argv: list[str], env: dict, stderr_path: Path) -> Child:
    """Run one child to completion through launch.py and return its usage."""
    launcher = [sys.executable, str(HERE / "launch.py"), str(stderr_path), "--", *argv]
    # its own process group, so that a timeout kills the launcher and its child together
    with subprocess.Popen(launcher, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"child exceeded {CHILD_TIMEOUT_S} s: {' '.join(argv)}") from None
    if proc.returncode != 0:
        raise RuntimeError(f"launcher failed with exit {proc.returncode}")
    return Child(**json.loads(out))


def environment() -> dict:
    loadavg = Path("/proc/loadavg")
    return {
        "time": time.time(),
        "loadavg": loadavg.read_text().split()[:3] if loadavg.exists() else None,
    }


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(spans: list[dict], ingest_rows: int, written_bytes: int,
                  traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def duration(s):
        return s["end"] - s["start"]

    def self_time(s):
        # spans of one thread nest, so the children of a span never overlap
        return duration(s) - sum(duration(c) for c in children[s["id"]])

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(duration(s) for s in named(name))

    def count(name, key):
        return sum(s.get("counts", {}).get(key, 0) for s in named(name))

    def rss_growth_mb(name):
        return sum(s["rss_end_kb"] - s["rss_start_kb"] for s in named(name)) / 1024.0

    def is_render(s):
        return s is not None and s["name"].startswith("reports.")

    renders = [s for s in spans if is_render(s) and not is_render(by_id.get(s["parent"]))]
    ingest_s = total("metrics.ingest")
    cells = count("model.build", "cells")
    return {
        "catalog.load_s": total("catalog.load"),
        "metrics.ingest_s": ingest_s,
        "metrics.ingest_rows": ingest_rows,
        "metrics.ingest_rows_per_s": ingest_rows / ingest_s if ingest_s else 0.0,
        "metrics.ingest_rss_growth_mb": rss_growth_mb("metrics.ingest"),
        "metrics.build_fleet_s": total("metrics.build_fleet"),
        "metrics.series": count("metrics.build_fleet", "series"),
        "model.build_s": total("model.build"),
        "model.build_calls": len(named("model.build")),
        "model.cells": cells,
        "model.feasible_ratio": count("model.build", "feasible_cells") / cells if cells else 0.0,
        "model.export_s": total("model.export"),
        "model.export_bytes": count("model.export", "bytes"),
        "model.export_rss_growth_mb": rss_growth_mb("model.export"),
        "solve.exact_s": total("solve.exact"),
        "solve.exact_calls": len(named("solve.exact")),
        "solve.infeasible_rows": count("solve.exact", "infeasible_rows"),
        "analysis.sweep_s": total("analysis.sweep"),
        "analysis.sweep_self_s": sum(self_time(s) for s in named("analysis.sweep")),
        "analysis.reports_s": total("analysis.reports"),
        "reports.render_s": sum(duration(s) for s in renders),
        "reports.render_bytes": sum(s.get("counts", {}).get("bytes", 0) for s in renders),
        "cli.self_s": sum(self_time(s) for s in named("cli.main")),
        "cli.written_bytes": written_bytes,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Bench:
    """One benchmark run: inputs, reference, and the children run against them."""

    def __init__(self, workload, seed: int, work: Path, env: dict):
        self.workload = workload
        self.work = work
        self.env = env
        self.inputs_dir = work / "inputs"
        self.out_dir = work / "out"
        self.stderr_path = work / "child.stderr"
        self.setup_s: list[float] = []
        self.paths = self._set_up(seed)
        self.ref = oracle.reference(workload.command, self.paths)
        self.verified_digest: str | None = None
        self.attempted = 0
        self.problems: list[str] = []

    def _set_up(self, seed: int) -> dict[str, Path]:
        digests = set()
        while (len(self.setup_s) < SETUP_MIN_REPEATS
               or (sum(self.setup_s) < SETUP_MIN_SECONDS and len(self.setup_s) < SETUP_MAX_REPEATS)):
            shutil.rmtree(self.inputs_dir, ignore_errors=True)
            start = time.perf_counter()
            paths = write_inputs(self.workload, seed, self.inputs_dir)
            self.setup_s.append(time.perf_counter() - start)
            digests.add(oracle.tree_digest(self.inputs_dir))
        if len(digests) != 1:
            raise RuntimeError("one seed generated different inputs on repeated set-up")
        return paths

    @property
    def failed(self) -> int:
        return len(self.problems)

    def attempt(self, prefix: list[str]) -> Child:
        """Run the workload's command once into a fresh output tree and check it."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = prefix + cli_args(self.workload, self.paths, self.out_dir)
        child = run_child(argv, self.env, self.stderr_path)
        self.attempted += 1
        problem = self._verify(child)
        if problem:
            self.problems.append(f"run {self.attempted}: {problem}")
        return child

    def _verify(self, child: Child) -> str | None:
        if child.exit_code != 0:
            err = self.stderr_path.read_text(errors="replace").strip()
            return f"exit {child.exit_code}: {err[-500:]}"
        digest = oracle.tree_digest(self.out_dir)
        if digest == self.verified_digest:
            return None
        problems = oracle.check(self.ref, self.out_dir)
        if problems:
            return "; ".join(problems[:5])
        if self.verified_digest is not None:
            return "correct output tree, but its bytes differ from an earlier run's"
        self.verified_digest = digest
        return None


def trace_layers(bench: Bench, cli: list[str], seconds: float) -> dict[str, list[float]]:
    """Alternate untraced and traced runs for `seconds`; per-layer samples by name.

    Pairing each traced run with the untraced run just before it keeps
    machine-load drift out of the tracing overhead.
    """
    spans_path = bench.work / "spans.json"
    ingest_rows = bench.paths["metrics"].read_bytes().count(b"\n") - 1
    per_run = []
    start = time.perf_counter()
    while not per_run or time.perf_counter() - start < seconds:
        untraced = bench.attempt(cli)
        spans_path.unlink(missing_ok=True)
        tracer = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                  f"run-{bench.attempted + 1}", "--"]
        traced = bench.attempt(tracer)
        if traced.exit_code == 0:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
            per_run.append(layer_metrics(spans, ingest_rows, tree_bytes(bench.out_dir),
                                         traced.wall_s, untraced.wall_s))
        elif time.perf_counter() - start >= seconds:
            raise RuntimeError("no traced run succeeded")
    return {name: [m[name] for m in per_run] for name in per_run[0]}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    work = WORK / workload_name
    env = dict(os.environ, PYTHONPATH=str(SRC))
    record = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
              "command": list(workload.command),
              "shape": {"workloads": workload.workloads, "samples": workload.samples,
                        "wide_catalog": workload.wide_catalog},
              "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
              "git_revision": git_revision(), "env_start": environment()}

    bench = Bench(workload, seed, work, env)
    cli = [sys.executable, "-m", "rightsizer.cli"]
    bench.attempt(cli)  # warm-up: byte-code caches and page cache, unmeasured
    if trace:
        samples = trace_layers(bench, cli, seconds)
        wanted = load_manifest()["per_layer"]
    else:
        measured: list[Child] = []
        start = time.perf_counter()
        while not measured or time.perf_counter() - start < seconds:
            measured.append(bench.attempt(cli))
        samples = {
            "wall_s": [c.wall_s for c in measured],
            "cpu_s": [c.cpu_s for c in measured],
            "peak_rss_mb": [c.peak_rss_mb for c in measured],
            "setup_s": bench.setup_s,
        }
        wanted = load_manifest()["end_to_end"]

    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    record.update({
        "env_end": environment(),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
        "summary": {name: quartiles(values) for name, values in samples.items()},
        "samples": samples,
        "metrics": metrics,
    })
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rightsizer" / "__init__.py").is_file():
        print(f"error: no rightsizer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rightsizer
    if not Path(rightsizer.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported rightsizer from {rightsizer.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = {name: f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"
               for name, s in record["summary"].items() if name in record["metrics"]}
    print(json.dumps({"python": record["python"], "nproc": record["nproc"],
                      "git_revision": record["git_revision"],
                      "loadavg": [record["env_start"]["loadavg"], record["env_end"]["loadavg"]],
                      "summary": summary, "problems": record["problems"][:3]}), file=sys.stderr)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
