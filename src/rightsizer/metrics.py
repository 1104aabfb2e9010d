"""Utilization telemetry: CSV ingestion and per-workload demand attributes.

A workload's demand on each resource is its mean utilization percentage plus
two standard deviations (clamped to 100), scaled against the published
capacity of the instance type it currently runs on.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from ._csvio import iter_rows
from .catalog import Catalog
from .errors import (
    DuplicateKeyError,
    DuplicateSampleError,
    InsufficientSamplesError,
    MalformedRowError,
    UnboundWorkloadError,
    UnknownTypeError,
    ValueOutOfRangeError,
)

METRICS_HEADER = ("workload_id", "timestamp", "metric", "value")
BINDINGS_HEADER = ("workload_id", "current_type")


class Metric(str, Enum):
    CPU = "cpu"
    MEM = "mem"


@dataclass(frozen=True)
class DemandStats:
    """Summary of one utilization series, in percent of current capacity."""

    mean_pct: float
    stddev_pct: float  # sample standard deviation (n-1 denominator)
    demand_pct: float  # min(mean + 2*stddev, 100)
    sample_count: int


@dataclass(frozen=True)
class WorkloadProfile:
    """One running workload: observed demand in absolute units plus identity."""

    id: str
    current_type: str   # catalog key of the type it runs on today
    cpu_demand: float   # ECU
    mem_demand: float   # GiB


@dataclass(frozen=True)
class Fleet:
    """Ordered running workloads; order fixes the row order downstream."""

    workloads: tuple[WorkloadProfile, ...]

    def __post_init__(self):
        if not self.workloads:
            raise ValueError("fleet must contain at least one workload")
        ids = [w.id for w in self.workloads]
        if len(set(ids)) != len(ids):
            raise ValueError("workload ids must be unique")

    def __len__(self) -> int:
        return len(self.workloads)


class SeriesAccumulator:
    """Exact running sums of one utilization series.

    Every finite float is a dyadic rational, so the values seen so far are all
    integer multiples of 1/`unit` for the largest power-of-two denominator
    among them. `total` and `total_sq` hold the sum and the sum of squares of
    those integers as Python ints, so mean and variance are exact rationals
    however many samples arrive. A value with a larger denominator moves the
    sums onto its finer grid first.

    The sample times seen during ingest are kept for duplicate detection.
    `timestamps` is an `array('q')`, 8 bytes per sample, of every int64 time
    later than all times before it, so it is sorted and holds every time of a
    series written in time order. The set `extra_timestamps` holds the rest:
    times out of order and times outside int64. Every int64 time in the set
    is below the array's last time.
    """

    __slots__ = ("count", "total", "total_sq", "unit", "timestamps", "extra_timestamps")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.total_sq = 0
        self.unit = 1
        self.timestamps = array("q")
        self.extra_timestamps: set[int] = set()

    def add_timestamp(self, timestamp: int) -> bool:
        """Record a sample time; False if the series already has it."""
        stamps = self.timestamps
        if (not stamps or stamps[-1] < timestamp) and _INT64_MIN <= timestamp <= _INT64_MAX:
            stamps.append(timestamp)
            return True
        i = bisect_left(stamps, timestamp)
        if i < len(stamps) and stamps[i] == timestamp or timestamp in self.extra_timestamps:
            return False
        self.extra_timestamps.add(timestamp)
        return True

    def add(self, value: float) -> None:
        numerator, denominator = value.as_integer_ratio()
        if denominator > self.unit:
            # both are powers of two, so the ratio is an exact integer
            scale = denominator // self.unit
            self.total *= scale
            self.total_sq *= scale * scale
            self.unit = denominator
        scaled = numerator * (self.unit // denominator)
        self.count += 1
        self.total += scaled
        self.total_sq += scaled * scaled

    def stats(self) -> DemandStats:
        """Mean, sample standard deviation, and mean + 2*stddev clamped to 100.

        The mean is the exact rational mean rounded once to a float; the
        standard deviation is the correctly rounded square root of the exact
        n-1 variance. Both match `statistics.mean`/`stdev` on Python 3.11+.
        """
        n = self.count
        if n < 2:
            raise InsufficientSamplesError(f"need at least 2 samples, got {n}")
        mean = self.total / (n * self.unit)
        # sum((a - total/n)**2) / (n - 1), over the grid's unit squared
        stddev = _sqrt_of_ratio(n * self.total_sq - self.total * self.total,
                                n * (n - 1) * self.unit * self.unit)
        return DemandStats(mean, stddev, min(mean + 2.0 * stddev, 100.0), n)


_FLOAT_DIGITS = 53          # significand bits of a double
_SUBNORMAL_EXPONENT = 1074  # 2**-1074 is the spacing of subnormal doubles


def _sqrt_of_ratio(p: int, q: int) -> float:
    """sqrt(p/q) for p >= 0 and q > 0, correctly rounded (ties to even)."""
    if p == 0:
        return 0.0

    def floor_root(e: int) -> tuple[int, int, int]:
        # floor(sqrt(p/q * 4**e)), with that scaled radicand as num/den
        num, den = (p << 2 * e, q) if e >= 0 else (p, q << -2 * e)
        return math.isqrt(num // den), num, den

    # Pick e so the root has exactly 53 bits; below 2**-1022 the float grid
    # stops at 2**-1074, so e never exceeds 1074. Scaling by 4**d moves the
    # floor root's bit length by exactly d, so one correction lands on it.
    e = min((2 * _FLOAT_DIGITS - p.bit_length() + q.bit_length()) // 2, _SUBNORMAL_EXPONENT)
    root, num, den = floor_root(e)
    corrected = min(e + _FLOAT_DIGITS - root.bit_length(), _SUBNORMAL_EXPONENT)
    if corrected != e:
        e = corrected
        root, num, den = floor_root(e)
    # round to nearest: compare num/den with (root + 1/2)**2
    odd = 2 * root + 1
    excess = 4 * num - den * odd * odd
    if excess > 0 or (excess == 0 and root & 1):
        root += 1
    return math.ldexp(root, -e)  # exact: root <= 2**53 on a grid no finer than 2**-1074


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

IngestedMetrics = dict[str, dict[Metric, SeriesAccumulator]]

_METRIC_BY_NAME = {m.value: m for m in Metric}


def ingest_metrics(source) -> IngestedMetrics:
    """Parse metrics CSV (``workload_id,timestamp,metric,value``) in one pass.

    Each row feeds the exact accumulator of its (workload, metric) series;
    no per-row objects are kept, only each sample's timestamp at 8 bytes.
    Workloads keep their order of first appearance. Values outside [0, 100]
    and duplicate (workload, metric, timestamp) rows are rejected with the
    offending line number.
    """
    grouped: IngestedMetrics = {}
    # While consecutive rows share a series, its last time stays in a local and
    # the append branch of `add_timestamp` runs inline, so a series whose rows
    # arrive together and in time order touches the dicts once. Rows sorted
    # by time across series change the key on every row and pay both lookups
    # and a read of the array's last time on each.
    run_id = run_metric = None
    for line_no, (workload_id, ts_text, metric_text, value_text) in iter_rows(source, METRICS_HEADER):
        if not workload_id:
            raise MalformedRowError(line_no, "empty workload_id")
        try:
            timestamp = int(ts_text)
        except ValueError:
            raise MalformedRowError(line_no, f"timestamp {ts_text!r} is not an integer") from None
        metric = _METRIC_BY_NAME.get(metric_text)
        if metric is None:
            raise MalformedRowError(line_no, f"metric {metric_text!r} is not one of 'cpu', 'mem'")
        try:
            value = float(value_text)
        except ValueError:
            raise MalformedRowError(line_no, f"value {value_text!r} is not a number") from None
        if not 0.0 <= value <= 100.0:
            raise ValueOutOfRangeError(line_no, f"value {value_text} outside [0, 100]")
        if workload_id != run_id or metric is not run_metric:
            by_metric = grouped.get(workload_id)
            if by_metric is None:
                by_metric = grouped[workload_id] = {}
            series = by_metric.get(metric)
            if series is None:
                series = by_metric[metric] = SeriesAccumulator()
            run_id, run_metric = workload_id, metric
            stamps = series.timestamps
            last = stamps[-1] if stamps else _INT64_MIN - 1
        if last < timestamp <= _INT64_MAX:
            stamps.append(timestamp)
            last = timestamp
        elif not series.add_timestamp(timestamp):
            raise DuplicateSampleError(
                line_no, f"duplicate sample for {workload_id!r}/{metric.value} at t={timestamp}")
        series.add(value)
    if not grouped:
        raise MalformedRowError(1, "metrics file has no data rows")
    return grouped


def load_bindings(source) -> dict[str, str]:
    """Parse bindings CSV (``workload_id,current_type``), preserving row order."""
    bindings: dict[str, str] = {}
    for line_no, (workload_id, current_type) in iter_rows(source, BINDINGS_HEADER):
        if not workload_id or not current_type:
            raise MalformedRowError(line_no, "empty field")
        if workload_id in bindings:
            raise DuplicateKeyError(line_no, f"duplicate binding for {workload_id!r}")
        bindings[workload_id] = current_type
    return bindings


def compute_demand_stats(values: Iterable[float]) -> DemandStats:
    """Mean, sample standard deviation, and mean + 2*stddev clamped to 100.

    Requires at least two finite samples (the n-1 estimator is undefined
    below that). See `SeriesAccumulator.stats` for the rounding.
    """
    series = SeriesAccumulator()
    for value in values:
        series.add(value)
    return series.stats()


def build_fleet(metrics: IngestedMetrics, catalog: Catalog, bindings: Mapping[str, str]) -> Fleet:
    """Turn ingested metrics into workload profiles with absolute demands.

    Each workload needs a binding to a catalog key plus cpu and mem series of
    at least two samples; its demand percentages are scaled against the bound
    type's published capacities. Workload order follows the metrics map.
    """
    workloads = []
    for workload_id, by_metric in metrics.items():
        if workload_id not in bindings:
            raise UnboundWorkloadError(f"workload {workload_id!r} has no current_type binding")
        type_key = bindings[workload_id]
        if type_key not in catalog:
            raise UnknownTypeError(f"workload {workload_id!r} is bound to unknown type {type_key!r}")
        current = catalog.lookup(type_key)
        stats: dict[Metric, DemandStats] = {}
        for metric in (Metric.CPU, Metric.MEM):
            series = by_metric.get(metric)
            count = series.count if series is not None else 0
            if count < 2:
                raise InsufficientSamplesError(
                    f"workload {workload_id!r} needs >= 2 {metric.value} samples, got {count}")
            stats[metric] = series.stats()
        workloads.append(WorkloadProfile(
            id=workload_id,
            current_type=type_key,
            cpu_demand=stats[Metric.CPU].demand_pct / 100.0 * current.cpu_capacity,
            mem_demand=stats[Metric.MEM].demand_pct / 100.0 * current.mem_capacity,
        ))
    return Fleet(tuple(workloads))
