"""Property tests: ingest's exact demand stats against `statistics` and across row orders."""

import statistics
import sys
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rightsizer import Metric, compute_demand_stats, ingest_metrics  # noqa: E402

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
