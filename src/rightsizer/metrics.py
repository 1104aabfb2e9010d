"""Utilization telemetry: CSV ingestion and per-workload demand attributes.

A workload's demand on each resource is its mean utilization percentage plus
two standard deviations (clamped to 100), scaled against the published
capacity of the instance type it currently runs on.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from enum import Enum
from itertools import count, islice
from operator import lt, mul
from typing import Iterable, Mapping, NamedTuple

from ._csvio import _CONTROL, identifier, iter_rows
from ._frozen import Frozen
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


class DemandStats(NamedTuple):
    """Summary of one utilization series, in percent of current capacity."""

    mean_pct: float
    stddev_pct: float  # sample standard deviation (n-1 denominator)
    demand_pct: float  # min(mean + 2*stddev, 100)
    sample_count: int


class WorkloadProfile(NamedTuple):
    """One running workload: observed demand in absolute units plus identity."""

    id: str
    current_type: str   # catalog key of the type it runs on today
    cpu_demand: float   # ECU
    mem_demand: float   # GiB


class Fleet(Frozen):
    """Ordered running workloads; order fixes the row order downstream."""

    __slots__ = _fields = ("workloads",)

    def __init__(self, workloads: tuple[WorkloadProfile, ...]):
        if not workloads:
            raise ValueError("fleet must contain at least one workload")
        if len({w.id for w in workloads}) != len(workloads):
            raise ValueError("workload ids must be unique")
        for w in workloads:
            if _CONTROL.search(w.id):
                raise ValueError(f"workload id {w.id!r} holds a control character")
            if not (w.cpu_demand >= 0 and w.mem_demand >= 0):
                raise ValueError(f"workload {w.id!r} has a demand that is negative or not a number")
        self._set(workloads=workloads)

    def __len__(self) -> int:
        return len(self.workloads)


class SeriesAccumulator:
    """Exact running sums of one utilization series.

    Every finite float is a dyadic rational, so the values seen so far are all
    integer multiples of 1/`unit` for a large enough power of two `unit`.
    `total` and `total_sq` hold the sum and the sum of squares of those
    integers as Python ints, so mean and variance are exact rationals however
    many samples arrive. A value off the grid moves the sums onto a finer one
    first. The grid need not be the coarsest that holds the values: the
    stats are the same exact rationals on every grid.

    `add` takes a value in [`floor`, 100] with one float multiply: such a
    value is an integer on the grid, and its scaled value fits a float.
    Zeros, values finer than the grid, values above 100 and grids too fine
    for a float take the exact `as_integer_ratio` path. Ingest adds the first
    row of a run of one series with `add_timestamp` and `add`, and the rest
    of the run with `add_run`, in C-level passes.

    The sample times seen during ingest are kept for duplicate detection, in
    three tiers. While a series' times arrive in order at one fixed interval,
    they are the progression `first`, `first + step`, ..., `last`: three ints
    however many samples come (`step` is None until a second time). The
    first time off the progression closes it for good and starts
    `timestamps`, an `array('q')` of 8 bytes per sample, which from then on
    takes every int64 time later than all times before it; so the array is
    sorted, and above `last`. The set `extra_timestamps`, None until its
    first use, takes the rest: times out of order, and times outside int64
    once the progression is closed. Every int64 time in the set is below the
    latest time of the other two tiers. `add_run` takes a run that continues
    the progression with one C-level comparison against a `range`, and
    stores nothing per sample.
    """

    __slots__ = ("count", "total", "total_sq", "unit", "scale", "floor",
                 "first", "step", "last", "timestamps", "extra_timestamps")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.total_sq = 0
        self.unit = 1
        self.scale = 1.0  # float(unit)
        self.floor = math.ldexp(1.0, _FLOAT_DIGITS - 1)  # every float from here up is a multiple of 1/unit
        self.first = self.step = self.last = None
        self.timestamps: array | None = None
        self.extra_timestamps: set[int] | None = None

    def add_timestamp(self, timestamp: int) -> bool:
        """Record a sample time; False if the series already has it."""
        stamps = self.timestamps
        if stamps is None:  # the progression is open
            last = self.last
            if last is None:
                self.first = self.last = timestamp
                return True
            gap = timestamp - last
            if gap == self.step or (self.step is None and gap > 0):
                self.step = gap
                self.last = timestamp
                return True
            stamps = self.timestamps = array("q")  # closes the progression
        if (stamps[-1] if stamps else self.last) < timestamp and _INT64_MIN <= timestamp <= _INT64_MAX:
            stamps.append(timestamp)
            return True
        first = self.first
        # a progression of one time has no step, and any step holds it
        if first <= timestamp <= self.last and (timestamp - first) % (self.step or 1) == 0:
            return False
        i = bisect_left(stamps, timestamp)
        if i < len(stamps) and stamps[i] == timestamp:
            return False
        extra = self.extra_timestamps
        if extra is None:
            self.extra_timestamps = {timestamp}
        elif timestamp in extra:
            return False
        else:
            extra.add(timestamp)
        return True

    def add(self, value: float) -> None:
        if self.floor <= value <= 100.0:
            scaled = int(value * self.scale)  # exact: a power-of-two multiply onto an integer
        else:
            numerator, denominator = value.as_integer_ratio()
            if denominator > self.unit:
                self._refine(denominator.bit_length() - 1)
            scaled = numerator * (self.unit // denominator)
        self.count += 1
        self.total += scaled
        self.total_sq += scaled * scaled

    def add_run(self, timestamps: list[int], values: list[float]) -> bool:
        """Add a non-empty run of samples at once; False, adding nothing, if it cannot.

        The series must already hold a time: ingest adds the first row of a
        run by itself. The run is added only if its times continue the open
        progression, or rise strictly from above the series' latest time and
        stay in int64, and if a grid of at most 2**-_MAX_GRID_EXPONENT holds
        the series and the run. The values must lie in [0, 100], which
        ingest checks first. The grid is set by the run's smallest nonzero
        value: a float with `math.frexp` exponent e is an integer multiple
        of 2**(e - 53), and so is every larger float.
        """
        last, stamps = self.last, self.timestamps
        if last is None:
            return False
        continues = False
        if stamps is None:  # the progression is open
            step = self.step or timestamps[0] - last
            stop = last + step * (len(timestamps) + 1)
            continues = step > 0 and timestamps == list(range(last + step, stop, step))
        if not continues:
            if timestamps[0] <= (stamps[-1] if stamps else last):
                return False
            if not all(map(lt, timestamps, islice(timestamps, 1, None))):
                return False
            try:
                run_stamps = array("q", timestamps)
            except OverflowError:
                return False
        exponent = self.unit.bit_length() - 1
        smallest = min(filter(None, values), default=0.0)
        if smallest:
            exponent = max(exponent, _FLOAT_DIGITS - math.frexp(smallest)[1])
        if exponent > _MAX_GRID_EXPONENT:
            return False
        if 1 << exponent > self.unit:
            self._refine(exponent)
        if continues:
            self.step, self.last = step, timestamps[-1]
        elif stamps is None:
            self.timestamps = run_stamps  # closes the progression
        else:
            stamps += run_stamps
        scale = self.scale
        scaled = [int(value * scale) for value in values]
        self.count += len(scaled)
        self.total += sum(scaled)
        self.total_sq += sum(map(mul, scaled, scaled))
        return True

    def _refine(self, exponent: int) -> None:
        """Move the sums onto the finer grid of multiples of 2**-exponent."""
        factor = (1 << exponent) // self.unit  # both are powers of two, so exact
        self.total *= factor
        self.total_sq *= factor * factor
        self.unit = 1 << exponent
        if exponent <= _MAX_GRID_EXPONENT:
            self.scale = math.ldexp(1.0, exponent)
            self.floor = math.ldexp(1.0, _FLOAT_DIGITS - 1 - exponent)
        else:
            self.floor = math.inf

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


_FLOAT_DIGITS = 53  # significand bits of a double
# 100 < 2**7, so a value up to 100 on a grid of 2**-1017 scales below 2**1024,
# the first power of two past the largest float
_MAX_GRID_EXPONENT = 1017


def _sqrt_of_ratio(p: int, q: int) -> float:
    """sqrt(p/q) for p >= 0 and q > 0, correctly rounded (ties to even).

    Rounding to odd (Boldo & Melquiond, IEEE Trans. Computers 57(4), 2008),
    as `statistics.stdev` does from Python 3.11 on: the root of p/q * 4**-e is
    taken with 55 or more bits, and its last bit is set when it is inexact.
    Those two extra bits let the one conversion to float round correctly,
    also on the subnormal grid.
    """
    e = (p.bit_length() - q.bit_length() - 2 * _FLOAT_DIGITS - 3) // 2
    num, den = (p, q << 2 * e) if e >= 0 else (p << -2 * e, q)
    root = math.isqrt(num // den)
    root |= root * root * den != num
    # int -> float and int / int each round once; math.ldexp would round twice below 2**-1022
    return float(root << e) if e >= 0 else root / (1 << -e)


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

IngestedMetrics = dict[str, dict[Metric, SeriesAccumulator]]

_METRIC_BY_NAME = {m.value: m for m in Metric}

# rows read in one block; the run a block ends in is added at its end, so
# a long run is never buffered whole
_BLOCK_ROWS = 4096


def ingest_metrics(source) -> IngestedMetrics:
    """Parse metrics CSV (``workload_id,timestamp,metric,value``) in one pass.

    Each row feeds the exact accumulator of its (workload, metric) series;
    no per-row objects are kept, and a series sampled at a fixed interval
    keeps its times in constant memory.
    Workloads keep their order of first appearance. Values outside [0, 100]
    and duplicate (workload, metric, timestamp) rows are rejected with the
    offending line number; the first bad line in the file is the one named.

    Consecutive rows of one series form a run. The first row of a run is
    checked and added by itself (`_add_row`); the rest are only buffered as
    text and added in C-level passes (`_add_rest`) when the run ends, or
    when a block of `_BLOCK_ROWS` rows does.
    """
    grouped: IngestedMetrics = {}
    # the current run: its key as text, the line of its first buffered row,
    # and the texts of the rows buffered since then
    run_id = run_metric = None
    rest_line = 0
    times: list[str] = []
    values: list[str] = []
    rows = iter_rows(source, METRICS_HEADER)
    line_no = 1
    try:
        while True:
            block_start = line_no
            for line_no, (workload_id, ts_text, metric_text, value_text) in islice(rows, _BLOCK_ROWS):
                if workload_id == run_id and metric_text == run_metric:
                    times.append(ts_text)
                    values.append(value_text)
                    continue
                if times:
                    # emptied first, so a fault in them leaves nothing to flush below
                    rest, times, values = (times, values), [], []
                    _add_rest(grouped, series, rest_line, run_id, run_metric, *rest)
                series = _add_row(grouped, line_no, workload_id, ts_text, metric_text, value_text)
                run_id, run_metric, rest_line = workload_id, metric_text, line_no + 1
            if line_no == block_start:
                break  # the block was empty, and nothing is left buffered
            if times:
                rest, times, values = (times, values), [], []
                _add_rest(grouped, series, rest_line, run_id, run_metric, *rest)
                rest_line = line_no + 1
    except MalformedRowError:
        if times:  # the reader failed after the buffered rows, so a fault among them comes first
            _add_rest(grouped, series, rest_line, run_id, run_metric, times, values)
        raise
    if not grouped:
        raise MalformedRowError(1, "metrics file has no data rows")
    return grouped


def _add_row(grouped: IngestedMetrics, line_no: int, workload_id: str, ts_text: str,
             metric_text: str, value_text: str) -> SeriesAccumulator:
    """Check one data row and add it to its series, which it returns.

    This is the only place a metrics data row is rejected. A workload_id is
    checked for control characters once, by the row that first names it:
    every later row of that workload, in a run or not, has the same text.
    """
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
    by_metric = grouped.get(workload_id)
    if by_metric is None:
        by_metric = grouped[identifier(line_no, "workload_id", workload_id)] = {}
    series = by_metric.get(metric)
    if series is None:
        series = by_metric[metric] = SeriesAccumulator()
    if not series.add_timestamp(timestamp):
        raise DuplicateSampleError(
            line_no, f"duplicate sample for {workload_id!r}/{metric.value} at t={timestamp}")
    series.add(value)
    return series


def _add_rest(grouped: IngestedMetrics, series: SeriesAccumulator, first_line: int, workload_id: str,
              metric_text: str, ts_texts: list[str], value_texts: list[str]) -> None:
    """Add the buffered rows of one run, lines `first_line` on, to `series`.

    The rows are replayed through `_add_row` if a text does not convert, a
    value is not in [0, 100], or `add_run` refuses them. The replay names
    the first bad row, or adds the rows if none is bad: times out of order
    or outside int64, or a grid too fine for a float.
    """
    try:
        times = list(map(int, ts_texts))
        values = list(map(float, value_texts))
    except ValueError:
        pass
    else:
        # a float sum is finite only if every term is, and then min and max are exact
        if (math.isfinite(sum(values)) and 0.0 <= min(values) and max(values) <= 100.0
                and series.add_run(times, values)):
            return
    for line_no, ts_text, value_text in zip(count(first_line), ts_texts, value_texts):
        _add_row(grouped, line_no, workload_id, ts_text, metric_text, value_text)


def load_bindings(source) -> dict[str, str]:
    """Parse bindings CSV (``workload_id,current_type``), preserving row order."""
    bindings: dict[str, str] = {}
    for line_no, (workload_id, current_type) in iter_rows(source, BINDINGS_HEADER):
        if not workload_id or not current_type:
            raise MalformedRowError(line_no, "empty field")
        identifier(line_no, "workload_id", workload_id)
        identifier(line_no, "current_type", current_type)
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
