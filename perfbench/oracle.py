"""Independent reference for the program's outputs.

The reference re-parses the generated CSV files without the program's
parser, recomputes each workload's demand with `statistics`, and picks the
cheapest feasible catalog type by brute force under the shared
(cost, cpu, mem, key) tie-break. `check` compares an output tree against it
and returns a list of problems; an empty list means the tree is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

HOURS_PER_YEAR = 8760
SWEEP_DELTAS = tuple(round(1.0 + k * 0.1, 10) for k in range(31))
REL_TOL = 1e-12    # demands: same formula, so equal up to the last few ulps at most
COST_TOL = 1e-9    # summed hourly costs


@dataclass(frozen=True)
class Reference:
    command: str
    delta: float | None
    catalog: tuple[tuple[str, float, float, float], ...]  # (key, cpu, mem, cost) in file order
    ids: tuple[str, ...]
    current: tuple[str, ...]        # bound type key per workload
    cpu_demand: tuple[float, ...]
    mem_demand: tuple[float, ...]
    targets: dict[float, tuple[str, ...]]  # delta -> chosen key per workload
    baseline_hourly: float


def _data_lines(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:] if line]


def _demand(values: list[float], capacity: float) -> float:
    pct = min(statistics.mean(values) + 2.0 * statistics.stdev(values), 100.0)
    return pct / 100.0 * capacity


def _cheapest(by_price, cpu: float, mem: float, delta: float) -> str:
    for cost, c_cpu, c_mem, key in by_price:
        if cpu * delta <= c_cpu and mem * delta <= c_mem:
            return key
    raise ValueError(f"no type hosts demand ({cpu}, {mem}) at factor {delta}")


def reference(command: tuple[str, ...], inputs: dict[str, Path]) -> Reference:
    """Expected results for one CLI command on the generated input files."""
    catalog = tuple((key, float(cpu), float(mem), float(cost))
                    for key, cpu, mem, cost in _data_lines(inputs["catalog"]))
    caps = {key: (cpu, mem) for key, cpu, mem, _ in catalog}
    prices = {key: cost for key, _, _, cost in catalog}
    bindings = dict(_data_lines(inputs["bindings"]))

    series: dict[str, dict[str, list[float]]] = {}
    for workload_id, _, metric, value in _data_lines(inputs["metrics"]):
        series.setdefault(workload_id, {}).setdefault(metric, []).append(float(value))
    ids = tuple(series)
    current = tuple(bindings[w] for w in ids)
    cpu_demand = tuple(_demand(series[w]["cpu"], caps[bindings[w]][0]) for w in ids)
    mem_demand = tuple(_demand(series[w]["mem"], caps[bindings[w]][1]) for w in ids)

    delta = float(command[command.index("--delta") + 1]) if "--delta" in command else None
    by_price = sorted((cost, cpu, mem, key) for key, cpu, mem, cost in catalog)
    deltas = SWEEP_DELTAS if command[0] == "sweep" else (delta,)
    targets = {d: tuple(_cheapest(by_price, c, m, d) for c, m in zip(cpu_demand, mem_demand))
               for d in deltas}
    baseline = 0.0
    for key in current:
        baseline += prices[key]
    return Reference(command[0], delta, catalog, ids, current, cpu_demand, mem_demand,
                     targets, baseline)


def _hourly(ref: Reference, keys) -> float:
    prices = {key: cost for key, _, _, cost in ref.catalog}
    total = 0.0
    for key in keys:
        total += prices[key]
    return total


def _close(a, b, tol: float) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _check_optimize(ref: Reference, out: Path) -> list[str]:
    problems = []
    doc = json.loads((out / "assignment.json").read_text(encoding="utf-8"))
    targets = ref.targets[ref.delta]
    if doc.get("status") != "optimal":
        problems.append(f"assignment status {doc.get('status')!r}")
    rows = doc.get("assignments", [])
    if [r["workload_id"] for r in rows] != list(ref.ids):
        problems.append("assignment rows differ from the fleet's workloads")
    for r, workload_id, current, target in zip(rows, ref.ids, ref.current, targets):
        if r["current_type"] != current or r["target_type"] != target:
            problems.append(f"{workload_id}: {r['current_type']} -> {r['target_type']}, "
                            f"expected {current} -> {target}")
    expected_total = _hourly(ref, targets)
    if not _close(doc.get("total_hourly_cost"), expected_total, COST_TOL):
        problems.append(f"total_hourly_cost {doc.get('total_hourly_cost')!r}, expected {expected_total!r}")
    costs = json.loads((out / "cost_report.json").read_text(encoding="utf-8"))
    if not _close(costs.get("baseline_hourly"), ref.baseline_hourly, COST_TOL):
        problems.append(f"baseline_hourly {costs.get('baseline_hourly')!r}, expected {ref.baseline_hourly!r}")
    for name in ("utilization_report.json", "consolidation_report.json",
                 "plot_costs.csv", "plot_utilization.csv", "plot_flow.csv"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    return problems


def break_even(ref: Reference) -> tuple[float, float] | None:
    baseline_annual = ref.baseline_hourly * HOURS_PER_YEAR
    previous = None
    for d in SWEEP_DELTAS:
        annual = _hourly(ref, ref.targets[d]) * HOURS_PER_YEAR
        if annual > baseline_annual:
            return None if previous is None else (previous, d)
        previous = d
    return None


def _check_sweep(ref: Reference, out: Path) -> list[str]:
    problems = []
    case_count = len(list(out.glob("case-*.json")))
    if case_count != len(SWEEP_DELTAS):
        problems.append(f"{case_count} case files, expected {len(SWEEP_DELTAS)}")
    for k, d in enumerate(SWEEP_DELTAS, start=1):
        path = out / f"case-{k}.json"
        if not path.is_file():
            continue
        case = json.loads(path.read_text(encoding="utf-8"))
        expected_map = dict(zip(ref.ids, ref.targets[d]))
        expected_total = _hourly(ref, ref.targets[d])
        if case.get("delta") != d or case.get("status") != "optimal":
            problems.append(f"case {k}: delta {case.get('delta')!r} status {case.get('status')!r}")
        elif case.get("assignment") != expected_map:
            wrong = sorted(w for w in ref.ids
                           if (case.get("assignment") or {}).get(w) != expected_map[w])
            problems.append(f"case {k} (delta {d}): {len(wrong)} wrong targets, first {wrong[:1]}")
        if not _close(case.get("total_hourly"), expected_total, COST_TOL):
            problems.append(f"case {k}: total_hourly {case.get('total_hourly')!r}, expected {expected_total!r}")
    bracket = break_even(ref)
    expected_line = ("not reached" if bracket is None
                     else f"between {bracket[0]:g} and {bracket[1]:g}")
    report = (out / "sweep_report.txt").read_text(encoding="utf-8")
    if f"  break-even       {expected_line}\n" not in report:
        problems.append(f"sweep report lacks break-even {expected_line!r}")
    return problems


def _parse_ampl_data(text: str) -> dict[str, object]:
    """Parse model.dat into {set name: [members]} and {param name: {member(s): value}}."""
    parsed: dict[str, object] = {}
    for block in text.strip().split("\n\n"):
        head, *body = block.splitlines()
        if body[-1] != ";":
            raise ValueError(f"unterminated statement {head!r}")
        body = body[:-1]
        words = head.split()
        if words[0] == "set":
            parsed[words[1]] = [m.strip("'") for line in body for m in line.split()]
        elif words[0] == "param" and words[2] == ":=":
            parsed[words[1]] = {m.strip("'"): float(v) for m, v in (line.split() for line in body)}
        elif words[0] == "param" and words[2] == ":":
            columns = [c.strip("'") for c in words[3:-1]]
            parsed[words[1]] = {
                row[0].strip("'"): dict(zip(columns, map(float, row[1:])))
                for row in (line.split() for line in body)}
        else:
            raise ValueError(f"unexpected statement {head!r}")
    return parsed


def _check_export(ref: Reference, out: Path) -> list[str]:
    problems = []
    if "minimize Total_Cost" not in (out / "model.mod").read_text(encoding="utf-8"):
        problems.append("model.mod lacks the objective")
    data = _parse_ampl_data((out / "model.dat").read_text(encoding="utf-8"))
    keys = [key for key, *_ in ref.catalog]
    if data.get("SERV") != list(ref.ids):
        problems.append("SERV differs from the fleet's workloads")
    if data.get("INST") != keys:
        problems.append("INST differs from the catalog keys")
    for name, expected in (("cpu_d", ref.cpu_demand), ("mem_d", ref.mem_demand)):
        got = data.get(name, {})
        bad = [w for w, e in zip(ref.ids, expected) if not _close(got.get(w), e, REL_TOL)]
        if bad or len(got) != len(ref.ids):
            problems.append(f"{name}: {len(bad)} values differ, first {bad[:1]}")
    if data.get("d") != {w: ref.delta for w in ref.ids}:
        problems.append("d differs from the requested factor")
    for name, column in (("cpu_s", 1), ("mem_s", 2)):
        if data.get(name) != {entry[0]: entry[column] for entry in ref.catalog}:
            problems.append(f"{name} differs from the catalog")
    cost_row = {key: cost for key, _, _, cost in ref.catalog}
    cost = data.get("cost", {})
    bad = [w for w in ref.ids if cost.get(w) != cost_row]
    if bad or len(cost) != len(ref.ids):
        problems.append(f"cost: {len(bad)} rows differ from the catalog prices, first {bad[:1]}")
    return problems


_CHECKS = {"optimize": _check_optimize, "sweep": _check_sweep, "export-ampl": _check_export}


def check(ref: Reference, out: Path) -> list[str]:
    """Problems found in the output tree `out`; empty when it matches the reference."""
    try:
        return _CHECKS[ref.command](ref, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
