"""Assignment model assembly: utilization factors, scaled demands,
feasibility rule, AMPL export.

Rows are fleet workloads, columns are catalog entries. A column j is feasible
for row i when the workload's demand, multiplied by its utilization factor,
fits the column's published capacities on both resources. Public functions
number rows and columns from 1, matching the paper's notation; `model.dat`
names them by workload id and type key instead. A sweep's factors are read
from a 'start:end:step' spec here (`parse_sweep_spec`), so that the CLI can
check `--sweep` without loading the analyses.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, NamedTuple

from ._csvio import identifier, iter_rows, number, plain
from ._frozen import Frozen
from .catalog import Catalog
from .errors import (
    ConfigError,
    DuplicateKeyError,
    IndexOutOfRangeError,
    InvalidPolicyError,
    MalformedRowError,
    UnknownTypeError,
)
from .metrics import Fleet

POLICY_HEADER = ("workload_id", "delta")
DEFAULT_SWEEP_SPEC = "1.0:4.0:0.1"
MAX_SWEEP_CASES = 10_000  # a spec asking for more is refused before its factors are built


class UtilizationPolicy(Frozen):
    """Per-workload headroom multipliers applied to observed demand.

    A factor of 1 means future load is expected to match the observed load;
    larger values reserve growth headroom. Factors below 1 or not finite are
    invalid.
    """

    __slots__ = _fields = ("default", "factors")

    def __init__(self, default: float, factors: Mapping[str, float] | None = None):
        # a snapshot, so that later edits to the caller's dict cannot bypass the checks below
        factors = MappingProxyType(dict(factors or {}))
        if not (math.isfinite(default) and default >= 1.0):
            raise InvalidPolicyError(
                f"default utilization factor {default} is not a finite number >= 1")
        for workload_id, factor in factors.items():
            if not (math.isfinite(factor) and factor >= 1.0):
                raise InvalidPolicyError(
                    f"utilization factor {factor} for {workload_id!r} is not a finite number >= 1")
        self._set(default=default, factors=factors)

    @classmethod
    def uniform(cls, delta: float) -> "UtilizationPolicy":
        return cls(default=delta)

    def delta_for(self, workload_id: str) -> float:
        return self.factors.get(workload_id, self.default)


def load_policy(source, default: float) -> UtilizationPolicy:
    """Parse per-workload factor CSV (``workload_id,delta``) over a default."""
    factors: dict[str, float] = {}
    for line_no, (workload_id, delta_text) in iter_rows(source, POLICY_HEADER):
        if not workload_id:
            raise MalformedRowError(line_no, "empty workload_id")
        identifier(line_no, "workload_id", workload_id)
        delta = number(line_no, "delta", delta_text)
        if not delta >= 1.0:
            raise InvalidPolicyError(f"line {line_no}: utilization factor {delta} for {workload_id!r} is < 1")
        if workload_id in factors:
            raise DuplicateKeyError(line_no, f"duplicate factor for {workload_id!r}")
        factors[workload_id] = delta
    return UtilizationPolicy(default=default, factors=factors)


def parse_sweep_spec(spec: str) -> tuple[float, ...]:
    """Expand 'start:end:step' into an inclusive, strictly increasing factor list.

    Each part is read as a number only when it is plain (`_csvio.plain`).
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep spec {spec!r} must be start:end:step")
    try:
        if not all(map(plain, parts)):
            raise ValueError
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


class AssignmentModel(NamedTuple):
    """One fleet-to-catalog assignment problem, with no M x N structure.

    Every row pays `catalog.entries[j].hourly_cost` for column j;
    `scaled_cpu`/`scaled_mem` hold each row's demand times its factor.
    Indices into these tuples, and into `fits`, are 0-based.
    """

    fleet: Fleet
    catalog: Catalog
    policy: UtilizationPolicy
    scaled_cpu: tuple[float, ...]
    scaled_mem: tuple[float, ...]

    @property
    def row_count(self) -> int:
        return len(self.fleet.workloads)

    @property
    def column_count(self) -> int:
        return len(self.catalog.entries)

    def fits(self, i: int, j: int) -> bool:
        """The feasibility rule: exact <=, so a demand at capacity fits."""
        e = self.catalog.entries[j]
        return self.scaled_cpu[i] <= e.cpu_capacity and self.scaled_mem[i] <= e.mem_capacity

    @property
    def feasible(self) -> tuple[tuple[bool, ...], ...]:
        """M x N mask derived from `fits` on every access; for tests and tracing."""
        return tuple(tuple(self.fits(i, j) for j in range(self.column_count))
                     for i in range(self.row_count))


def build_model(fleet: Fleet, catalog: Catalog, policy: UtilizationPolicy) -> AssignmentModel:
    """Scale each row's demand by its factor (UtilizationPolicy validated it).

    Every workload's current type must resolve in the catalog.
    """
    workloads = fleet.workloads
    for w in workloads:
        if w.current_type not in catalog:
            raise UnknownTypeError(f"workload {w.id!r} has current type {w.current_type!r} not in catalog")
    factor, default = policy.factors.get, policy.default
    factors = [factor(w.id, default) for w in workloads]
    return AssignmentModel(
        fleet=fleet,
        catalog=catalog,
        policy=policy,
        scaled_cpu=tuple(w.cpu_demand * f for w, f in zip(workloads, factors)),
        scaled_mem=tuple(w.mem_demand * f for w, f in zip(workloads, factors)),
    )


def feasible_set(model: AssignmentModel, row: int) -> list[int]:
    """Columns (1-based, catalog order) able to host the given row (1-based)."""
    if not 1 <= row <= model.row_count:
        raise IndexOutOfRangeError(f"row {row} outside 1..{model.row_count}")
    return [j + 1 for j in range(model.column_count) if model.fits(row - 1, j)]


class AmplExport(NamedTuple):
    """`model.mod` as one string and `model.dat` as parts to write in order.

    Every line of the cost block is two parts, the row's name and a price
    row that all rows share, so the M x N block is never one string in
    memory. `data_text` joins the parts.
    """

    model_text: str
    data_parts: tuple[str, ...]

    @property
    def data_text(self) -> str:
        return "".join(self.data_parts)


_MODEL_TEXT = """\
set SERV;   # running servers to be reassigned
set INST;   # candidate instance types

param cpu_s {INST} >= 0;   # CPU capacity supplied, ECU
param mem_s {INST} >= 0;   # memory capacity supplied, GiB
param cpu_d {SERV} >= 0;   # CPU demand observed, ECU
param mem_d {SERV} >= 0;   # memory demand observed, GiB
param d {SERV} >= 1;       # utilization headroom factor
param cost {SERV,INST} >= 0;

var Trans {SERV,INST} >= 0, integer;

minimize Total_Cost:
    sum {i in SERV, j in INST}
        cost[i,j] * Trans[i,j];

subject to CPU{i in SERV, j in INST}:
    Trans[i,j] * cpu_d[i] * d[i] <= cpu_s[j];

subject to Memory{i in SERV, j in INST}:
    Trans[i,j] * mem_d[i] * d[i] <= mem_s[j];

subject to Total{i in SERV}:
    sum {j in INST}
        Trans[i,j] = 1;
"""


def _quoted(name: str) -> str:
    # AMPL string literal: an embedded quote is written twice
    return "'" + name.replace("'", "''") + "'"


def _num(value: float) -> str:
    return repr(float(value))


def _set_statement(name: str, members: list[str]) -> str:
    lines = [f"set {name} :="]
    for i in range(0, len(members), 6):
        lines.append("    " + " ".join(members[i:i + 6]))
    lines.append(";")
    return "\n".join(lines)


def _param_statement(name: str, pairs: list[tuple[str, float]]) -> str:
    lines = [f"param {name} :="]
    for member, value in pairs:
        lines.append(f"    {member} {_num(value)}")
    lines.append(";")
    return "\n".join(lines)


def export_ampl(model: AssignmentModel) -> AmplExport:
    """Render the assignment program as model text + data parts.

    Both texts use LF line endings and are byte-identical across repeated
    exports of the same model, so they can serve as golden artifacts or be
    fed to an external solver for a cross-check.
    """
    servers = [_quoted(w.id) for w in model.fleet.workloads]
    insts = [_quoted(e.key) for e in model.catalog.entries]
    workloads = model.fleet.workloads

    statements = [
        _set_statement("SERV", servers),
        _set_statement("INST", insts),
        _param_statement("cpu_d", [(n, w.cpu_demand) for n, w in zip(servers, workloads)]),
        _param_statement("mem_d", [(n, w.mem_demand) for n, w in zip(servers, workloads)]),
        _param_statement("d", [(n, model.policy.delta_for(w.id)) for n, w in zip(servers, workloads)]),
        _param_statement("cpu_s", [(n, e.cpu_capacity) for n, e in zip(insts, model.catalog.entries)]),
        _param_statement("mem_s", [(n, e.mem_capacity) for n, e in zip(insts, model.catalog.entries)]),
        f"param cost : {' '.join(insts)} :=",
    ]
    # every row has the same costs, so every cost line shares one price row
    cost_row = " ".join(_num(e.hourly_cost) for e in model.catalog.entries)
    parts = ["\n\n".join(statements)]
    for name in servers:
        parts += (f"\n    {name} ", cost_row)
    parts.append("\n;\n")
    return AmplExport(model_text=_MODEL_TEXT, data_parts=tuple(parts))
