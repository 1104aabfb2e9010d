"""Property tests: ingest's exact demand stats against `statistics` and across any row order,
the square root under the standard deviation, and the line ingest names for a malformed row
or a duplicate sample."""

import statistics
import sys
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rightsizer import Metric, compute_demand_stats, ingest_metrics  # noqa: E402
from rightsizer.errors import DuplicateSampleError, RowError  # noqa: E402
from rightsizer.metrics import _sqrt_of_ratio  # noqa: E402
from test_metrics import RUN_FAULTS, _assert_correctly_rounded_sqrt  # noqa: E402

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


def operands(max_bits):
    """Non-negative integers of a drawn bit length, so short and long ones are both common."""
    return st.integers(0, max_bits).flatmap(lambda bits: st.integers(0, (1 << bits) - 1))


@st.composite
def radicands(draw):
    """(p, q) with p >= 0 and q >= 1, of up to about 2,200 bits each.

    Besides any ratio: ratios of perfect squares, and ratios whose root lies
    halfway between two floats (normal ones up to the largest float, or
    subnormal ones), both nudged by a few units of p; and ratios whose root
    lies near or below the smallest normal float, down to where it rounds to 0.
    """
    kind = draw(st.sampled_from(("any", "square", "halfway", "tiny")))
    if kind == "any":
        return draw(operands(2200)), draw(operands(2200)) + 1
    if kind == "tiny":
        p = draw(operands(2200))
        return p, (p + draw(operands(200)) + 1) << draw(st.integers(2040, 2160))
    if kind == "square":
        root_q = draw(operands(1100).map(lambda b: b + 1) | st.integers(0, 1100).map(lambda k: 1 << k))
        p, q = draw(operands(1100)) ** 2, root_q ** 2
    else:
        # (m + 1/2) * 2**-e is halfway between two floats: normal ones when m
        # has 53 bits, subnormal ones when m is shorter and e is 1074; m of
        # all ones rounds up into the next binade, and past the largest float
        # when e is -971
        if draw(st.booleans()):
            bits, e = 53, draw(st.just(-971) | st.integers(-971, 1074))
        else:
            bits, e = draw(st.integers(1, 52)), 1074
        m = draw(st.just((1 << bits) - 1) | st.integers(1 << (bits - 1), (1 << bits) - 1))
        p, q = (2 * m + 1) ** 2, 4
        p, q = (p << -2 * e, q) if e < 0 else (p, q << 2 * e)
        scale = draw(operands(200)) + 1
        p, q = p * scale, q * scale
    return max(p + draw(st.integers(-2, 2)), 0), q


# at or past halfway from the largest float to 2**1024, a root rounds to 2**1024
OVERFLOW_RADICAND = Fraction(2 ** 1024 - 2 ** 970) ** 2


@settings(PROPERTY_SETTINGS, max_examples=1000)
@given(radicands())
def test_square_root_of_any_ratio_is_correctly_rounded(radicand):
    p, q = radicand
    exact = Fraction(p, q)
    if exact >= OVERFLOW_RADICAND:
        with pytest.raises(OverflowError):
            _sqrt_of_ratio(p, q)
    else:
        _assert_correctly_rounded_sqrt(_sqrt_of_ratio(p, q), exact)


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
    """Each series' stats, every float as its exact bits, and its exact sums,
    which the rounded stats could hide an error in."""
    return {(w, m): (tuple(x.hex() if isinstance(x, float) else x for x in series.stats()),
                     Fraction(series.total, series.unit), Fraction(series.total_sq, series.unit ** 2))
            for w, by_metric in ingest_metrics(csv_bytes(rows)).items()
            for m, series in by_metric.items()}


@PROPERTY_SETTINGS
@given(fleets().flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(rows))))
def test_row_order_does_not_change_the_sums(rows_and_permuted):
    # grouped rows form long runs that are batched; sorted by time the series
    # change on every row; reversed, each run goes back in time; any other
    # order mixes the three
    rows, permuted = rows_and_permuted
    in_file_order = all_sums(rows)
    assert all_sums(sorted(rows, key=lambda row: row[1])) == in_file_order
    assert all_sums(rows[::-1]) == in_file_order
    assert all_sums(permuted) == in_file_order


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


# steps of one second to 2**62, so some series leave int64 within a few steps
steps = st.integers(1, 10) | st.sampled_from((300, 2**62)) | st.integers(1, 2**62)


@st.composite
def series_times(draw):
    """One series' times: a fixed-interval progression with gaps, maybe reversed;
    then up to three times zero to two steps past its end, in any order and
    maybe repeated; and a few times put in anywhere that repeat one of it, lie
    between two of its steps, or lie outside int64."""
    first, step = draw(first_times), draw(steps)
    n = draw(st.integers(1, 12))
    gaps = draw(st.sets(st.integers(0, n - 1), max_size=min(2, n - 1)))
    times = [first + step * k for k in range(n) if k not in gaps]
    if draw(st.booleans()):
        times.reverse()
    times += draw(st.lists(st.integers(n, n + 2).map(lambda k: first + step * k), max_size=3))
    pool = (*times, first + step // 2, 2**63, -(2**63) - 1, 3 * 2**62)
    for extra in draw(st.lists(st.sampled_from(pool), max_size=3)):
        times.insert(draw(st.integers(0, len(times))), extra)
    return times


@st.composite
def two_series_files(draw):
    """Rows of w1/cpu and of another series, interleaved in a drawn pattern,
    so runs of either series end and resume anywhere."""
    w, m = draw(st.sampled_from((("w1", "mem"), ("w2", "cpu"))))
    queues = [[("w1", t, "cpu") for t in draw(series_times())],
              [(w, t, m) for t in draw(series_times())]]
    pattern = draw(st.lists(st.booleans(), min_size=sum(map(len, queues)), max_size=sum(map(len, queues))))
    rows = []
    for take_other in pattern:
        queue = queues[take_other] or queues[not take_other]
        rows.append(queue.pop(0))
    return [(w, t, m, float(k % 7)) for k, (w, t, m) in enumerate(rows)]


@settings(PROPERTY_SETTINGS, max_examples=500)
@given(two_series_files())
def test_the_first_repeated_sample_is_the_duplicate_named(rows):
    seen = set()
    first_repeat = None
    for line, (w, t, m, _) in enumerate(rows, 2):  # the header is line 1
        if (w, m, t) in seen:
            first_repeat = line
            break
        seen.add((w, m, t))
    if first_repeat is None:
        ingested = ingest_metrics(csv_bytes(rows))
        assert sum(s.count for by_metric in ingested.values() for s in by_metric.values()) == len(rows)
    else:
        with pytest.raises(DuplicateSampleError) as exc:
            ingest_metrics(csv_bytes(rows))
        assert exc.value.line == first_repeat
