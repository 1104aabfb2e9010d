"""Shared builders for tests: tiny catalogs, fleets, seeded random models, and an AMPL data reader."""

from __future__ import annotations

import importlib.util
import itertools
import random
import re
import sys
from pathlib import Path

from rightsizer import (
    AssignmentModel,
    AssignmentSolution,
    Catalog,
    Fleet,
    InstanceType,
    UtilizationPolicy,
    WorkloadProfile,
    build_model,
    project_costs,
    utilization_report,
)
from rightsizer import reports

# Small three-column catalog used by many hand-checked cases:
# capacities double per step, costs 0.10 / 0.20 / 0.40.
ABC_ENTRIES = (
    InstanceType("lin.a.small.r1", 2.0, 4.0, 0.10),
    InstanceType("lin.b.medium.r1", 4.0, 8.0, 0.20),
    InstanceType("lin.c.large.r1", 8.0, 16.0, 0.40),
)


def abc_catalog() -> Catalog:
    return Catalog(ABC_ENTRIES)


def one_workload_fleet(cpu=1.5, mem=3.0, current_type="lin.a.small.r1") -> Fleet:
    return Fleet((WorkloadProfile("w1", current_type, cpu, mem),))


def model_for(fleet: Fleet, catalog: Catalog, delta: float) -> AssignmentModel:
    return build_model(fleet, catalog, UtilizationPolicy.uniform(delta))


def assignment_report(fleet: Fleet, catalog: Catalog, solution: AssignmentSolution):
    """`reports.assignment_spec` as a reader of `solution` alone. Its costs and
    utilizations are those of every row at column 1, which is always in range,
    so a fault in `solution` is refused by the spec's own check."""
    every_row_at_1 = AssignmentSolution((1,) * len(fleet), 0.0)
    return reports.assignment_spec(fleet, catalog, solution, project_costs(fleet, catalog, every_row_at_1),
                                   utilization_report(fleet, catalog, every_row_at_1), 1.0)


# Grids keep ties common so the cost/cpu/mem/key tie-break chain is exercised.
_CPU_GRID = (1.0, 2.0, 4.0, 8.0, 16.0)
_MEM_GRID = (2.0, 4.0, 8.0, 16.0, 32.0)
_COST_GRID = (0.05, 0.1, 0.1, 0.2, 0.2, 0.4, 0.8)


def random_trial_model(rng: random.Random) -> AssignmentModel:
    """One random model with M <= 6 rows, N <= 5 columns, and factor in [1, 3]."""
    n = rng.randint(1, 5)
    m = rng.randint(1, 6)
    entries = tuple(
        InstanceType(
            f"os.fam{j}.size.r{rng.randint(0, 1)}",
            rng.choice(_CPU_GRID),
            rng.choice(_MEM_GRID),
            rng.choice(_COST_GRID),
        )
        for j in range(n)
    )
    catalog = Catalog(entries)
    workloads = []
    for i in range(m):
        current = entries[rng.randrange(n)]
        workloads.append(WorkloadProfile(
            id=f"w{i + 1}",
            current_type=current.key,
            cpu_demand=round(rng.uniform(0.0, current.cpu_capacity), 3),
            mem_demand=round(rng.uniform(0.0, current.mem_capacity), 3),
        ))
    delta = round(rng.uniform(1.0, 3.0), 2)
    return build_model(Fleet(tuple(workloads)), catalog, UtilizationPolicy.uniform(delta))


# a quoted name (an embedded quote is written twice) or a bare word
_AMPL_TOKEN = re.compile(r"'(?:[^']|'')*'|[^\s']+")


def _ampl_word(token: str):
    return token[1:-1].replace("''", "'") if token.startswith("'") else float(token)


def parse_ampl_data(text: str) -> dict:
    """Read an exported model.dat: sets as member lists, 1-D params as {member: value},
    and 2-D params (``param cost : cols :=``) as {(row, column): value}."""
    parsed: dict = {}
    tokens = iter(_AMPL_TOKEN.findall(text))
    for kind in tokens:
        name = next(tokens)
        head = list(itertools.takewhile(lambda t: t != ":=", tokens))
        body = [_ampl_word(t) for t in itertools.takewhile(lambda t: t != ";", tokens)]
        if kind == "set" and not head:
            parsed[name] = body
        elif kind == "param" and not head:
            parsed[name] = dict(zip(body[0::2], body[1::2]))
        elif kind == "param" and head[0] == ":":
            columns = [_ampl_word(t) for t in head[1:]]
            step = len(columns) + 1
            parsed[name] = {(body[r], column): value for r in range(0, len(body), step)
                            for column, value in zip(columns, body[r + 1:r + step])}
        else:
            raise ValueError(f"unexpected statement {kind} {name}")
    return parsed


def load_perfbench_inputs():
    """perfbench/inputs.py, loaded by path: the benchmark's workloads and input writer."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up while it is built
    spec.loader.exec_module(module)
    return module
