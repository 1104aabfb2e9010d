"""Property tests: ingest's exact demand stats against `statistics` and across row orders,
and the line it names for a malformed row."""

import statistics
import sys
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rightsizer import Metric, compute_demand_stats, ingest_metrics  # noqa: E402
from rightsizer.errors import RowError  # noqa: E402
from test_metrics import RUN_FAULTS  # noqa: E402

PROPERTY_SETTINGS = settings(deadline=None, database=None, derandomize=True)
HEADER = "workload_id,timestamp,metric,value\n"

# The ends of the range and values whose grids differ widely, so a series
# moves onto finer grids as it goes; then values that need a grid finer than
# a float can scale to: subnormals and the smallest normal floats.
EDGE_VALUES = (0.0, 100.0, 1e-5, 0.1, 100 / 3, 50.0)
TINY_VALUES = (5e-324, 1e-310, 2.2250738585072014e-308, 1e-300)
percentages = st.sampled_from(EDGE_VALUES) | st.floats(2.0 ** -900, 100.0)
tiny_values = st.sampled_from(TINY_VALUES) | st.floats(0.0, 1e-300)
# coarse values first, then the rest, with or without tiny values: the grid
# becomes finer mid-run, and is too fine for a float in some series
series_values = st.builds(lambda coarse, rest: coarse + rest,
                          st.lists(st.integers(0, 100).map(float), max_size=30),
                          st.lists(percentages, min_size=20, max_size=60)
                          | st.lists(percentages | tiny_values, max_size=60),
                          ).filter(lambda values: len(values) >= 2)


def csv_bytes(rows):
    return (HEADER + "".join(f"{w},{t},{m},{v!r}\n" for w, t, m, v in rows)).encode()


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="statistics.stdev is correctly rounded from 3.11 on")
@PROPERTY_SETTINGS
@given(series_values)
def test_stats_equal_the_statistics_module(values):
    ingested = ingest_metrics(csv_bytes(("w1", t, "cpu", v) for t, v in enumerate(values)))
    series = ingested["w1"][Metric.CPU]
    exact = [Fraction(v) for v in values]
    assert Fraction(series.total, series.unit) == sum(exact)
    assert Fraction(series.total_sq, series.unit ** 2) == sum(v * v for v in exact)
    stats = series.stats()
    assert stats.mean_pct == statistics.mean(values)
    assert stats.stddev_pct == statistics.stdev(values)
    assert stats.sample_count == len(values)
    assert compute_demand_stats(values) == stats


# where a series' times start: some series cross the ends of int64
first_times = st.sampled_from((0, 1_704_067_200, 2**63 - 100, -(2**63) - 3))


@st.composite
def fleets(draw):
    """Rows of a few series, grouped by series, each in time order."""
    rows = []
    for w in range(draw(st.integers(1, 2))):
        for metric in ("cpu", "mem"):
            values = draw(series_values)
            first, step = draw(first_times), draw(st.integers(1, 10))
            rows.extend((f"w{w}", first + step * k, metric, v) for k, v in enumerate(values))
    return rows


def all_sums(rows):
    """Each series' stats and exact sums, which the rounded stats could hide an error in."""
    return {(w, m): (series.stats(), Fraction(series.total, series.unit),
                     Fraction(series.total_sq, series.unit ** 2))
            for w, by_metric in ingest_metrics(csv_bytes(rows)).items()
            for m, series in by_metric.items()}


@PROPERTY_SETTINGS
@given(fleets())
def test_row_order_does_not_change_the_sums(rows):
    # grouped rows form long runs that are batched; sorted by time the series
    # change on every row; reversed, each run goes back in time
    in_file_order = all_sums(rows)
    assert all_sums(sorted(rows, key=lambda row: row[1])) == in_file_order
    assert all_sums(rows[::-1]) == in_file_order


def _moved(fault):
    # a RUN_FAULTS row follows a row of w1/cpu at time t; this one follows
    # sample k - 1 of series (w, m)
    return lambda w, m, k: fault(100 * (k - 1)).replace("w1,", f"{w},").replace(",cpu,", f",{m},")


# each fault as the row that replaces sample k >= 1 of series (w, m)
ROW_FAULTS = {
    **{name: _moved(fault) for name, fault in RUN_FAULTS.items()},
    "columns": lambda w, m, k: f"{w},{100 * k},{m},10,extra",
    "utf-8": lambda w, m, k: f"{w}\udcff,{100 * k},{m},10",  # byte 0xff once encoded
}


@st.composite
def faulty_files(draw):
    """2-4 workloads with both series, and one or two sample rows replaced by faults."""
    workloads = [f"w{n}" for n in range(draw(st.integers(2, 4)))]
    samples = draw(st.integers(2, 20))
    keys = [(w, m, k) for w in workloads for m in ("cpu", "mem") for k in range(samples)]
    values = dict(zip(keys, draw(st.lists(st.integers(0, 100), min_size=len(keys), max_size=len(keys)))))
    positions = draw(st.lists(st.sampled_from([key for key in values if key[2] >= 1]),
                              min_size=1, max_size=2, unique=True))
    faults = {key: ROW_FAULTS[draw(st.sampled_from(sorted(ROW_FAULTS)))](*key) for key in positions}
    return values, faults


def faulty_csv(keys, values, faults):
    rows = [faults[key] if key in faults else f"{key[0]},{100 * key[2]},{key[1]},{values[key]}"
            for key in keys]
    return (HEADER + "".join(row + "\n" for row in rows)).encode("utf-8", "surrogateescape")


@PROPERTY_SETTINGS
@given(faulty_files())
def test_the_first_faulty_line_is_named_in_series_order_and_sorted_by_time(case):
    values, faults = case
    in_series_order = list(values)
    for keys in (in_series_order, sorted(in_series_order, key=lambda key: key[2])):
        first = min(keys.index(key) for key in faults) + 2  # the header is line 1
        with pytest.raises(RowError) as exc:
            ingest_metrics(faulty_csv(keys, values, faults))
        assert exc.value.line == first
