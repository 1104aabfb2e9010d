import ast
import math
import random
import statistics
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from rightsizer import analysis as analysis_module
from rightsizer import metrics as metrics_module
from rightsizer import (
    Metric,
    build_fleet,
    compute_demand_stats,
    ingest_metrics,
    load_bindings,
    load_catalog,
)
from rightsizer.errors import (
    DuplicateKeyError,
    DuplicateSampleError,
    InsufficientSamplesError,
    MalformedRowError,
    RowError,
    UnboundWorkloadError,
    UnknownTypeError,
    ValueOutOfRangeError,
)

HEADER = "workload_id,timestamp,metric,value\n"


def metrics_bytes(*rows):
    return (HEADER + "\n".join(rows) + "\n").encode()


def reference_stats(values):
    # independent of the implementation: plain fsum arithmetic
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


# --- ingestion ------------------------------------------------------------

def test_ingest_groups_by_workload_and_metric():
    data = metrics_bytes(
        "w1,100,cpu,10", "w1,200,mem,20", "w2,100,cpu,30", "w2,200,mem,40",
        "w1,300,cpu,20", "w2,300,mem,50", "w2,400,mem,60")
    grouped = ingest_metrics(data)
    assert list(grouped) == ["w1", "w2"]
    assert grouped["w1"][Metric.CPU].stats() == compute_demand_stats([10.0, 20.0])
    assert grouped["w1"][Metric.MEM].count == 1
    assert grouped["w2"][Metric.CPU].count == 1
    assert grouped["w2"][Metric.MEM].stats() == compute_demand_stats([40.0, 50.0, 60.0])
    assert grouped["w2"][Metric.MEM].stats().sample_count == 3


def test_value_out_of_range():
    with pytest.raises(ValueOutOfRangeError) as exc:
        ingest_metrics(metrics_bytes("w1,100,cpu,120"))
    assert "line 2" in str(exc.value)


def test_negative_value_rejected():
    with pytest.raises(ValueOutOfRangeError):
        ingest_metrics(metrics_bytes("w1,100,cpu,-0.5"))


def test_shuffled_rows_give_the_stats_of_sorted_rows():
    rng = random.Random(14)
    rows = [f"w{k % 3},{100 + k},{'cpu' if k % 2 else 'mem'},{rng.uniform(0, 100)!r}"
            for k in range(60)]
    shuffled = rows[:]
    rng.shuffle(shuffled)
    by_sorted = ingest_metrics(metrics_bytes(*rows))
    by_shuffled = ingest_metrics(metrics_bytes(*shuffled))
    assert set(by_sorted) == set(by_shuffled) == {"w0", "w1", "w2"}
    for workload_id, by_metric in by_sorted.items():
        for metric in (Metric.CPU, Metric.MEM):
            assert by_shuffled[workload_id][metric].stats() == by_metric[metric].stats()


def test_duplicate_sample_rejected():
    with pytest.raises(DuplicateSampleError) as exc:
        ingest_metrics(metrics_bytes("w1,100,cpu,10", "w1,100,cpu,11"))
    assert "line 3" in str(exc.value)


OUT_OF_ORDER_ROWS = ("w1,300,cpu,10", "w1,100,cpu,20", "w1,100,mem,5", "w1,200,cpu,30",
                     "w1,400,cpu,40", "w1,0,cpu,50")


def test_an_out_of_order_series_loads_like_a_sorted_one():
    grouped = ingest_metrics(metrics_bytes(*OUT_OF_ORDER_ROWS))
    assert grouped["w1"][Metric.CPU].stats() == compute_demand_stats([10.0, 20.0, 30.0, 40.0, 50.0])


# 300 came first but is no longer the latest time, so only a search finds it;
# the mem row in between makes the series' rows resume after another series
@pytest.mark.parametrize("timestamp", (0, 100, 200, 300, 400))
def test_an_out_of_order_duplicate_is_found_with_its_line(timestamp):
    with pytest.raises(DuplicateSampleError) as exc:
        ingest_metrics(metrics_bytes(*OUT_OF_ORDER_ROWS, f"w1,{timestamp},cpu,60"))
    assert str(exc.value) == f"line 8: duplicate sample for 'w1'/cpu at t={timestamp}"


def test_a_series_written_backwards_loads_like_one_written_forwards():
    n = 2048
    rows = [f"w1,{t},cpu,{t % 97}" for t in range(n)]
    forward = ingest_metrics(metrics_bytes(*rows))["w1"][Metric.CPU]
    backward = ingest_metrics(metrics_bytes(*reversed(rows)))["w1"][Metric.CPU]
    assert backward.stats() == forward.stats()
    for t in (n - 1, n - 100, 0):  # the first row, one in between, the last row
        with pytest.raises(DuplicateSampleError) as exc:
            ingest_metrics(metrics_bytes(*reversed(rows), f"w1,{t},cpu,1"))
        assert str(exc.value) == f"line {n + 2}: duplicate sample for 'w1'/cpu at t={t}"


WIDE_TIMES = (2**63, -(2**63) - 1, 10**30)


def test_timestamps_outside_int64_are_accepted():
    values = [10.0, 20.0, 35.0, 40.0, 55.0]
    times = [*WIDE_TIMES, 2**63 - 1, -(2**63)]
    wide = ingest_metrics(metrics_bytes(*(f"w1,{t},cpu,{v}" for t, v in zip(times, values))))
    plain = ingest_metrics(metrics_bytes(*(f"w1,{t},cpu,{v}" for t, v in enumerate(values))))
    assert wide["w1"][Metric.CPU].stats() == plain["w1"][Metric.CPU].stats()


@pytest.mark.parametrize("timestamp", WIDE_TIMES)
def test_a_duplicate_timestamp_outside_int64_is_rejected_with_its_line(timestamp):
    with pytest.raises(DuplicateSampleError) as exc:
        ingest_metrics(metrics_bytes(f"w1,{timestamp},cpu,10", "w1,5,cpu,10",
                                     f"w1,{timestamp},cpu,11"))
    assert str(exc.value) == f"line 4: duplicate sample for 'w1'/cpu at t={timestamp}"


def test_a_duplicate_past_the_end_of_int64_is_found_after_the_progression_breaks():
    # 0 and 2**62 set a step of 2**62; 3 * 2**62 is off it and outside int64,
    # and 2**63 would be the next step but comes after the progression closed
    times = (0, 2**62, 3 * 2**62, 2**63, 3 * 2**62)
    with pytest.raises(DuplicateSampleError) as exc:
        ingest_metrics(metrics_bytes(*(f"w1,{t},cpu,10" for t in times)))
    assert str(exc.value) == f"line 6: duplicate sample for 'w1'/cpu at t={3 * 2**62}"


def _held_after_ingest(data):
    """Bytes still allocated once `data` is ingested, with the result held, and the result."""
    tracemalloc.start()
    try:
        ingested = ingest_metrics(data)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, ingested


def test_a_fixed_interval_series_is_held_in_memory_that_does_not_grow_with_its_samples():
    def series(n, jitter):
        return metrics_bytes(*(f"w1,{1_704_067_200 + 300 * k + jitter * (k % 7)},cpu,{k % 89}"
                               for k in range(n)))

    _held_after_ingest(series(100, 0))  # first use, so lazily made objects count in neither run
    short, _ = _held_after_ingest(series(100, 0))
    long, regular = _held_after_ingest(series(100_000, 0))
    # 8 bytes per sample would be 800,000 bytes; the constant left is freed
    # floats the interpreter keeps for reuse, about 2.4 kB on Python 3.11
    assert long - short < 10_000
    jittered = ingest_metrics(series(100_000, 1))
    assert jittered["w1"][Metric.CPU].stats() == regular["w1"][Metric.CPU].stats()


def test_series_on_one_grid_are_held_in_under_480_bytes_each():
    # 2000 workloads x 12 samples of cpu and mem, every 5 minutes from one time:
    # 424-438 bytes a series in either row order on Python 3.10-3.13, against
    # 524-538 with the grid held as an int and two floats
    rows = [f"w{k:04d},{1_704_067_200 + 300 * s},{metric},{(37 * k + 11 * s) % 10_000 / 100}"
            for k in range(2000) for metric in ("cpu", "mem") for s in range(12)]
    _held_after_ingest(metrics_bytes(*rows[:100]))  # first use, so lazily made objects do not count
    for order in (rows, sorted(rows, key=lambda row: int(row.split(",")[1]))):
        held, ingested = _held_after_ingest(metrics_bytes(*order))
        assert len(ingested) == 2000
        assert held / 4000 < 480


def test_same_timestamp_different_metric_allowed():
    grouped = ingest_metrics(metrics_bytes(
        "w1,100,cpu,10", "w1,100,mem,10", "w1,200,cpu,30", "w1,200,mem,20"))
    assert grouped["w1"][Metric.CPU].stats() == compute_demand_stats([10.0, 30.0])
    assert grouped["w1"][Metric.MEM].stats() == compute_demand_stats([10.0, 20.0])


@pytest.mark.parametrize("row", ["w1,x,cpu,10", "w1,100,disk,10", "w1,100,cpu,ten", "w1,100,cpu"])
def test_malformed_rows(row):
    with pytest.raises(MalformedRowError) as exc:
        ingest_metrics(metrics_bytes("w0,100,cpu,10", row))
    assert str(exc.value).startswith("line 3: ")


def test_empty_metrics_rejected():
    with pytest.raises(MalformedRowError):
        ingest_metrics(HEADER.encode())


# --- long runs -------------------------------------------------------------
# The first row of a run of one series is checked by itself; the rest of the
# run is buffered and checked in batch. A fault anywhere in it must be named
# as the row-by-row code names it.

RUN = 64  # rows of one series


def run_rows(n=RUN):
    return [f"w1,{100 * k},cpu,{k % 97}.25" for k in range(n)]


# each fault as a row that follows a row of w1/cpu at time t
RUN_FAULTS = {
    "timestamp": lambda t: "w1,1e3,cpu,10",
    "value": lambda t: f"w1,{t + 1},cpu,ten",
    "nan": lambda t: f"w1,{t + 1},cpu,nan",
    "inf": lambda t: f"w1,{t + 1},cpu,inf",
    "negative": lambda t: f"w1,{t + 1},cpu,-0.5",
    "over-100": lambda t: f"w1,{t + 1},cpu,100.01",
    "duplicate": lambda t: f"w1,{t},cpu,10",
    "empty-id": lambda t: f",{t + 1},cpu,10",
    "metric": lambda t: f"w1,{t + 1},disk,10",
}

# the first two buffered rows, rows inside the run, the last row of the run,
# and the row right after the run
RUN_POSITIONS = [1, 2, 15, 16, 40, RUN - 1, RUN]


@pytest.mark.parametrize("position, interleaved",
                         [pytest.param(p, False, id=str(p)) for p in RUN_POSITIONS]
                         + [pytest.param(p, True, id=f"interleaved-{p}") for p in RUN_POSITIONS])
@pytest.mark.parametrize("fault", sorted(RUN_FAULTS))
def test_a_fault_in_a_long_run_is_named_as_in_a_short_one(fault, position, interleaved):
    rows = run_rows()
    bad = RUN_FAULTS[fault](100 * (position - 1))
    with pytest.raises(RowError) as short:
        ingest_metrics(metrics_bytes(rows[position - 1], bad))
    assert short.value.line == 3
    rows[position:position + 1] = [bad]
    if interleaved:  # a row of w2 after each row of w1, so every run is one row long
        rows = [row for k, w1_row in enumerate(rows) for row in (w1_row, f"w2,{100 * k},cpu,1")]
        line = 2 * position + 2
    else:
        rows.append("w2,0,cpu,1")
        line = position + 2
    with pytest.raises(type(short.value)) as long:
        ingest_metrics(metrics_bytes(*rows))
    assert str(long.value) == str(short.value).replace("line 3:", f"line {line}:")


@pytest.mark.parametrize("next_row", ["w2,0,cpu,ten", "w2,0,cpu,101", ",0,cpu,1"],
                         ids=["value", "over-100", "empty-id"])
def test_a_buffered_fault_comes_before_a_bad_first_row_of_the_next_run(next_row):
    rows = run_rows()
    rows[40] = "w1,4000,cpu,ten"
    with pytest.raises(MalformedRowError) as exc:
        ingest_metrics(metrics_bytes(*rows, next_row))
    assert str(exc.value) == "line 42: value 'ten' is not a number"


# A run's first row is added by itself and its next BLOCK rows are buffered,
# so the row after those starts a new run of the same series. START rows of
# another series go first in the second case, so that the cap falls mid-file
# and not after a multiple of BLOCK data rows.
BLOCK = metrics_module._BLOCK_ROWS
START = 7


def other_rows(start):
    return [f"w2,{100 * k},mem,1" for k in range(start)]


@pytest.mark.parametrize("start", [0, START])
@pytest.mark.parametrize("index", [BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2],
                         ids=["last-but-one-buffered", "last-buffered", "first-after-cap", "second-after-cap"])
@pytest.mark.parametrize("fault", sorted(RUN_FAULTS))
def test_a_fault_next_to_a_block_boundary_is_named_as_in_a_short_run(fault, index, start):
    rows = run_rows(BLOCK + RUN)
    bad = RUN_FAULTS[fault](100 * (index - 1))
    with pytest.raises(RowError) as short:
        ingest_metrics(metrics_bytes(rows[index - 1], bad))
    rows[index] = bad
    with pytest.raises(type(short.value)) as long:
        ingest_metrics(metrics_bytes(*other_rows(start), *rows))
    assert str(long.value) == str(short.value).replace("line 3:", f"line {start + index + 2}:")


def test_a_clean_run_is_added_in_blocks_of_at_most_block_rows(monkeypatch):
    # 2 * BLOCK + 1 rows: the first row alone, BLOCK buffered rows, then a new
    # run's first row alone and its BLOCK - 1 rows; a cap one row late buffers BLOCK + 1
    sizes = []
    add_run = metrics_module.SeriesAccumulator.add_run

    def counted(self, timestamps, values):
        sizes.append(len(timestamps))
        return add_run(self, timestamps, values)
    monkeypatch.setattr(metrics_module.SeriesAccumulator, "add_run", counted)
    rows = run_rows(2 * BLOCK + 1)
    series = ingest_metrics(metrics_bytes(*rows))["w1"][Metric.CPU]
    assert max(sizes) <= BLOCK and sizes.count(BLOCK) == 1, sizes
    assert series.count == len(rows)


@pytest.mark.parametrize("start", [0, START])
def test_a_long_run_is_added_in_blocks_so_its_peak_memory_does_not_grow_with_it(start):
    rows = [f"w1,{1_704_067_200 + 300 * k},cpu,{k % 89}.5" for k in range(100_000)]
    data = metrics_bytes(*other_rows(start), *rows)
    ingest_metrics(metrics_bytes(*rows[:100]))  # first use, so lazily made objects do not count
    tracemalloc.start()
    try:
        series = ingest_metrics(data)["w1"][Metric.CPU]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the run's texts buffered whole, and their conversions, peaked at 23 MB
    assert peak < 2_000_000
    assert series.stats() == compute_demand_stats([k % 89 + 0.5 for k in range(100_000)])


@pytest.mark.parametrize("later", [b"w1,6300,cpu,1,extra", b"w1,6300,cpu,\xff"], ids=["columns", "utf-8"])
def test_a_buffered_fault_comes_before_a_reader_error_later_in_its_run(later):
    rows = run_rows(RUN - 1)
    rows[40] = "w1,4000,cpu,ten"
    with pytest.raises(MalformedRowError) as exc:
        ingest_metrics(metrics_bytes(*rows)[:-1] + b"\n" + later + b"\n")
    assert str(exc.value) == "line 42: value 'ten' is not a number"


def test_a_buffered_fault_comes_before_an_error_of_the_stream_itself():
    def lines():
        yield from metrics_bytes("w1,100,cpu,1", "w1,200,cpu,ten").splitlines(keepends=True)
        raise OSError("read failed")
    with pytest.raises(MalformedRowError) as exc:
        ingest_metrics(lines())
    assert str(exc.value) == "line 3: value 'ten' is not a number"


def test_a_reader_error_after_a_clean_run_is_named():
    rows = run_rows()
    with pytest.raises(MalformedRowError) as exc:
        ingest_metrics(metrics_bytes(*rows) + b"w1,6400,cpu\n")
    assert str(exc.value) == f"line {RUN + 2}: expected 4 columns, got 3"


def run_stats(rows):
    return ingest_metrics(metrics_bytes(*rows))["w1"][Metric.CPU].stats()


def test_a_long_run_out_of_order_loads_like_a_sorted_one():
    rows = run_rows()
    shuffled = rows[:20] + rows[20:][::-1]
    assert run_stats(shuffled) == run_stats(rows) == compute_demand_stats(
        [k % 97 + 0.25 for k in range(RUN)])
    with pytest.raises(DuplicateSampleError) as exc:
        # t=3000 is row 53 of the shuffled run, on line 55
        ingest_metrics(metrics_bytes(*shuffled[:58], "w1,3000,cpu,1", *shuffled[58:]))
    assert str(exc.value) == "line 60: duplicate sample for 'w1'/cpu at t=3000"


@pytest.mark.parametrize("position", [20, RUN - 1])
def test_a_long_run_with_times_outside_int64_loads_and_finds_their_duplicates(position):
    rows = run_rows()
    for timestamp in (2**63, -(2**63) - 1):
        rows[position] = f"w1,{timestamp},cpu,{position % 97}.25"
        assert run_stats(rows) == run_stats(run_rows())
        with pytest.raises(DuplicateSampleError) as exc:
            ingest_metrics(metrics_bytes(*rows, f"w1,{timestamp},cpu,1"))
        assert str(exc.value) == f"line {RUN + 2}: duplicate sample for 'w1'/cpu at t={timestamp}"


def test_a_batched_run_moves_onto_the_grid_of_its_finest_value():
    # the buffered rows need a finer grid than the first ones; 100/3 and 1/3
    # have odd significands, so a grid one step too coarse would lose half a unit
    values = [50.0] * 20 + [100 / 3, 1 / 3, 2 / 3, 75.0] * 10
    rows = [f"w1,{t},cpu,{v!r}" for t, v in enumerate(values)]
    series = ingest_metrics(metrics_bytes(*rows))["w1"][Metric.CPU]
    # the rounded stats would hide an error of half a unit, the exact sums do not
    exact = [Fraction(v) for v in values]
    assert Fraction(series.total, series.unit) == sum(exact)
    assert Fraction(series.total_sq, series.unit ** 2) == sum(v * v for v in exact)
    assert series.stats() == compute_demand_stats(values)


def test_a_run_on_a_grid_too_fine_for_a_float_loads_exactly():
    # 1e-300 and the subnormal 5e-324 need a grid finer than 2**-1017
    values = [50.0] * 20 + [1e-300, 0.0, 5e-324, 100.0] * 10
    rows = [f"w1,{t},cpu,{v!r}" for t, v in enumerate(values)]
    assert run_stats(rows) == compute_demand_stats(values)


# --- demand statistics ----------------------------------------------------

def test_demand_stats_hand_case():
    stats = compute_demand_stats([10.0, 20.0, 30.0])
    ref_mean, ref_std = reference_stats([10.0, 20.0, 30.0])
    assert (ref_mean, ref_std) == (20.0, 10.0)
    assert stats.mean_pct == 20.0
    assert stats.stddev_pct == 10.0
    assert stats.demand_pct == 40.0
    assert stats.sample_count == 3


def test_demand_stats_read_ints_and_fractions_as_floats():
    # a Fraction(1, 3) once landed on a grid too coarse for it, and gave a mean of 0.0
    assert compute_demand_stats([Fraction(1, 3)] * 3) == compute_demand_stats([1 / 3] * 3)
    assert compute_demand_stats([Fraction(1, 3)] * 3).mean_pct == 1 / 3
    assert compute_demand_stats([10, 20, 30]) == compute_demand_stats([10.0, 20.0, 30.0])


def test_add_reads_a_number_as_the_float_it_rounds_to():
    # add once put a value on the grid of its own denominator, too coarse for
    # any but a dyadic one: Fraction(1, 3) added 0 on a grid of 1/2, and
    # Decimal("0.1") added 0 on the grid of 1/8 that 0.125 had set
    thirds = metrics_module.SeriesAccumulator()
    for _ in range(3):
        thirds.add(Fraction(1, 3))
    tenth = metrics_module.SeriesAccumulator()
    tenth.add(0.125)
    tenth.add(Decimal("0.1"))
    assert thirds.mean().hex() == statistics.mean([1 / 3] * 3).hex()
    assert tenth.mean().hex() == statistics.mean([0.125, 0.1]).hex()


def test_demand_stats_zero_variance():
    stats = compute_demand_stats([50.0, 50.0, 50.0])
    assert (stats.mean_pct, stats.stddev_pct, stats.demand_pct) == (50.0, 0.0, 50.0)


def test_demand_stats_clamped_at_100():
    values = [90.0, 100.0, 98.0, 96.0]
    ref_mean, ref_std = reference_stats(values)
    assert ref_mean == 96.0
    assert ref_std == pytest.approx(4.3205, abs=1e-4)
    assert ref_mean + 2 * ref_std > 100.0
    stats = compute_demand_stats(values)
    assert stats.mean_pct == pytest.approx(ref_mean)
    assert stats.stddev_pct == pytest.approx(ref_std)
    assert stats.demand_pct == 100.0


def test_demand_stats_needs_two_samples():
    with pytest.raises(InsufficientSamplesError):
        compute_demand_stats([42.0])


def test_the_mean_of_no_samples_is_refused():
    with pytest.raises(InsufficientSamplesError) as exc:
        metrics_module.SeriesAccumulator().mean()
    assert str(exc.value) == "need at least 1 sample, got 0"


def test_a_run_is_not_added_to_a_series_that_holds_no_time():
    series = metrics_module.SeriesAccumulator()
    assert series.add_run([100, 200], [1.5, 2.5]) is False
    assert (series.count, series.total, series.exponent, series.first, series.step) == (0, 0, 0, None, None)


def test_demand_translation_monotone():
    rng = random.Random(11)
    for _ in range(100):
        values = [rng.uniform(0, 40) for _ in range(rng.randint(2, 12))]
        base = compute_demand_stats(values)
        shift = rng.uniform(0.1, 10.0)
        if base.demand_pct + shift >= 100.0:
            continue
        shifted = compute_demand_stats([v + shift for v in values])
        assert shifted.demand_pct == pytest.approx(base.demand_pct + shift, abs=1e-9)


def test_demand_permutation_invariant():
    rng = random.Random(12)
    for _ in range(50):
        values = [rng.uniform(0, 100) for _ in range(rng.randint(2, 10))]
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert compute_demand_stats(shuffled) == compute_demand_stats(values)


# Values with very different binary exponents, down to the smallest subnormal,
# force the accumulator onto finer grids mid-series.
_MIXED_VALUES = (0.0, 5e-324, 1e-310, 1e-5, 0.1, 0.3, 1.0, 33.3, 50.0, 99.99, 100.0)


def _random_series(rng):
    n = rng.choice((2, 2, 3, 7, 24, 288))
    kind = rng.randrange(4)
    if kind == 0:
        return [rng.choice(_MIXED_VALUES) for _ in range(n)]
    if kind == 1:
        return [rng.uniform(0, 100)] * n  # zero variance
    if kind == 2:
        return [round(rng.uniform(0, 100), 2) for _ in range(n)]
    return [rng.uniform(0, 100) * rng.choice((1.0, 1e-3, 1e-300)) for _ in range(n)]


def _series_csv(series):
    rows = []
    for k, values in enumerate(series):
        metric = "cpu" if k % 2 == 0 else "mem"
        rows.extend(f"w{k // 2},{t},{metric},{v!r}" for t, v in enumerate(values))
    return metrics_bytes(*rows)


def _ingested_stats(series):
    grouped = ingest_metrics(_series_csv(series))
    return [grouped[f"w{k // 2}"][Metric.CPU if k % 2 == 0 else Metric.MEM].stats()
            for k in range(len(series))]


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="statistics.stdev is correctly rounded from 3.11 on")
def test_stats_match_statistics_module_bit_for_bit():
    rng = random.Random(15)
    series = [_random_series(rng) for _ in range(2000)]
    series += [[5e-324, 100.0], [0.1, 50.0], [42.0, 42.0]]
    for values, stats in zip(series, _ingested_stats(series)):
        assert stats.mean_pct == statistics.mean(values), values
        assert stats.stddev_pct == statistics.stdev(values), values
        assert stats.sample_count == len(values)
        assert compute_demand_stats(values) == stats


def _assert_correctly_rounded_sqrt(root, exact):
    """`root` is sqrt(exact) rounded to the nearest float, ties to even."""
    if root == 0.0:
        assert exact <= (Fraction(math.nextafter(0.0, 1.0)) / 2) ** 2
        return
    below = (Fraction(math.nextafter(root, 0.0)) + Fraction(root)) / 2
    above = Fraction(root) + Fraction(math.ulp(root)) / 2  # also past the largest float
    assert below * below <= exact <= above * above
    if exact in (below * below, above * above):
        assert int(root / math.ulp(root)) % 2 == 0


def test_stats_are_correctly_rounded_on_every_interpreter():
    rng = random.Random(16)
    series = [_random_series(rng) for _ in range(500)]
    series += [[5e-324, 0.0], [0.1, 50.0], [42.0, 42.0], [10.0, 20.0, 30.0]]
    for values, stats in zip(series, _ingested_stats(series)):
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / len(exact)
        variance = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)
        assert stats.mean_pct == float(mean)
        _assert_correctly_rounded_sqrt(stats.stddev_pct, variance)


def test_stats_of_values_outside_0_100_are_exact():
    # the one-multiply path of `add` covers only percentages: 1e300 on the
    # grid of 1e-10 would overflow a float
    for values in ([1e-10, 1e300], [-5.0, 250.0, 0.5], [1e300, 1e-300, 7.0]):
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / len(exact)
        stats = compute_demand_stats(values)
        assert stats.mean_pct == float(mean)
        _assert_correctly_rounded_sqrt(stats.stddev_pct,
                                       sum((v - mean) ** 2 for v in exact) / (len(exact) - 1))


def test_square_root_rounds_halfway_cases_to_even():
    # (2m + 1)**2 / 4**(e + 1) has the root (m + 1/2) / 2**e, exactly halfway
    # between two floats: normal ones when m has 53 bits, subnormal ones
    # (spacing 2**-1074) when m is shorter and e is 1074. Radicands a hair
    # above or below halfway must round away from it, even on the subnormal
    # grid, where a 53-bit intermediate root would round twice.
    rng = random.Random(17)
    for _ in range(300):
        bits = rng.choice((53, 53, rng.randint(1, 52)))
        m = rng.getrandbits(bits) | (1 << (bits - 1))
        e = rng.randint(-200, 1000) if bits == 53 else 1074
        p, q = (2 * m + 1) ** 2 << 64, 4 << 64
        p, q = (p << -2 * e, q) if e < 0 else (p, q << 2 * e)
        for nudge in (0, 1, -1):
            exact = Fraction(p + nudge, q)
            _assert_correctly_rounded_sqrt(metrics_module._sqrt_of_ratio(p + nudge, q), exact)


def imported_by(module) -> set[str]:
    """The top-level names of the modules that `module`'s source imports, in functions too."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    return {name.partition(".")[0] for name in imported}


def test_metrics_module_does_not_use_statistics():
    assert "statistics" not in imported_by(metrics_module)


def test_analysis_module_imports_no_exact_rational_module():
    # its means and variances are exact integer sums from metrics, rounded once
    imported = imported_by(analysis_module)
    assert "metrics" in imported
    assert imported.isdisjoint({"statistics", "fractions", "decimal", "numbers", "random"})


# --- fleet construction -----------------------------------------------------

CATALOG = load_catalog(
    b"key,cpu_ecu,mem_gib,cost_per_hour\n"
    b"lin.m.large.r1,4.0,8.0,0.20\n"
    b"lin.m.xlarge.r1,8.0,16.0,0.40\n")


def test_build_fleet_scales_demand():
    data = metrics_bytes(
        "w1,100,cpu,10", "w1,200,cpu,20", "w1,300,cpu,30",
        "w1,100,mem,25", "w1,200,mem,25", "w1,300,mem,25")
    fleet = build_fleet(ingest_metrics(data), CATALOG, {"w1": "lin.m.large.r1"})
    w = fleet.workloads[0]
    # demand 40% of 4.0 ECU and 25% of 8.0 GiB
    assert w.cpu_demand == pytest.approx(1.6)
    assert w.mem_demand == pytest.approx(2.0)
    assert not hasattr(w, "current_cost")  # the current price is read from the catalog
    assert w.current_type == "lin.m.large.r1"


def test_build_fleet_unknown_type():
    data = metrics_bytes("w1,100,cpu,10", "w1,200,cpu,20",
                         "w1,100,mem,10", "w1,200,mem,20")
    with pytest.raises(UnknownTypeError):
        build_fleet(ingest_metrics(data), CATALOG, {"w1": "lin.m.huge.r1"})


def test_build_fleet_unbound_workload():
    data = metrics_bytes("w1,100,cpu,10", "w1,200,cpu,20",
                         "w1,100,mem,10", "w1,200,mem,20")
    with pytest.raises(UnboundWorkloadError):
        build_fleet(ingest_metrics(data), CATALOG, {})


def test_build_fleet_missing_mem_series():
    data = metrics_bytes("w1,100,cpu,10", "w1,200,cpu,20")
    with pytest.raises(InsufficientSamplesError) as exc:
        build_fleet(ingest_metrics(data), CATALOG, {"w1": "lin.m.large.r1"})
    assert "mem" in str(exc.value)


def test_built_demand_never_exceeds_current_capacity():
    rng = random.Random(13)
    for _ in range(50):
        rows = []
        for t in range(rng.randint(2, 8)):
            rows.append(f"w1,{100 + t},cpu,{rng.uniform(60, 100):.2f}")
            rows.append(f"w1,{100 + t},mem,{rng.uniform(60, 100):.2f}")
        fleet = build_fleet(ingest_metrics(metrics_bytes(*rows)), CATALOG,
                            {"w1": "lin.m.large.r1"})
        w = fleet.workloads[0]
        assert w.cpu_demand <= 4.0
        assert w.mem_demand <= 8.0


# --- bindings ---------------------------------------------------------------

def test_load_bindings():
    data = b"workload_id,current_type\nw1,lin.m.large.r1\nw2,lin.m.xlarge.r1\n"
    assert load_bindings(data) == {"w1": "lin.m.large.r1", "w2": "lin.m.xlarge.r1"}


def test_load_bindings_duplicate():
    data = b"workload_id,current_type\nw1,lin.m.large.r1\nw1,lin.m.xlarge.r1\n"
    with pytest.raises(DuplicateKeyError):
        load_bindings(data)


@pytest.mark.parametrize("row", [b",lin.m.large.r1", b"w1,"], ids=["workload_id", "current_type"])
def test_load_bindings_rejects_an_empty_field(row):
    with pytest.raises(MalformedRowError) as exc:
        load_bindings(b"workload_id,current_type\n" + row + b"\n")
    assert str(exc.value) == "line 2: empty field"
