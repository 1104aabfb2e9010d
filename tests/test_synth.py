import hashlib
import random
from pathlib import Path

import pytest

from helpers import load_perfbench_inputs
from rightsizer import (
    Catalog,
    InstanceType,
    SynthSpec,
    build_fleet,
    generate,
    ingest_metrics,
    load_bindings,
    load_catalog,
)
from rightsizer._csvio import csv_text
from rightsizer.metrics import BINDINGS_HEADER, METRICS_HEADER
from rightsizer.synth import BASE_TIMESTAMP, SAMPLE_INTERVAL, SynthOutput, _binding_pool

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def fixture_catalog():
    return load_catalog(DATA.joinpath("catalog.csv").read_bytes())


def reference_generate(spec: SynthSpec) -> SynthOutput:
    """The oracle for `generate`: one `rng.gauss` draw and one f-string per row."""
    rng = random.Random(spec.seed)
    width = len(str(spec.workload_count))
    metric_lines = [csv_text(METRICS_HEADER, ())]
    bindings = []
    pool = _binding_pool(spec.catalog)
    for k in range(1, spec.workload_count + 1):
        workload_id = f"w{k:0{width}d}"
        current = pool[rng.randrange(len(pool))]
        bindings.append((workload_id, current.key))
        series = (
            ("cpu", rng.uniform(5.0, 45.0), rng.uniform(1.0, 9.0)),
            ("mem", rng.uniform(8.0, 55.0), rng.uniform(1.0, 8.0)),
        )
        for metric, mean, spread in series:
            for s in range(spec.samples_per_series):
                value = min(max(rng.gauss(mean, spread), 0.0), 100.0)
                timestamp = BASE_TIMESTAMP + s * SAMPLE_INTERVAL
                metric_lines.append(f"{workload_id},{timestamp},{metric},{value:.2f}\n")
    return SynthOutput(
        metrics_csv="".join(metric_lines).encode("utf-8"),
        bindings_csv=csv_text(BINDINGS_HEADER, bindings).encode("utf-8"),
    )


REFERENCE_CATALOGS = {
    "fixture": fixture_catalog,
    "quoted-keys": lambda: load_catalog(DATA.joinpath("catalog_quoted_keys.csv").read_bytes()),
    "one-type": lambda: Catalog((InstanceType("lin.only.one.r1", 2.0, 4.0, 0.10),)),
}


def reference_shapes(draw: random.Random, cases: int):
    """(seed, workload count, samples per series) to hold `generate` to its oracle.

    The fixed shapes give ids of 1, 2 and 3 digits and both parities of the
    sample count; with an odd count a pair's second normal goes from a
    workload's cpu series to its mem series.
    """
    yield from ((0, 1, 2), (0, 9, 3), (1, 10, 4), (2**64 + 1, 99, 9), (7, 100, 5), (3, 120, 7))
    for _ in range(cases):
        seed = draw.choice((0, draw.randrange(1000), draw.randrange(2**128)))
        yield seed, draw.randint(1, 120), draw.randint(2, 9)


@pytest.mark.parametrize("catalog_name", sorted(REFERENCE_CATALOGS))
def test_generate_equals_the_per_row_reference_byte_for_byte(catalog_name):
    catalog = REFERENCE_CATALOGS[catalog_name]()
    for seed, count, samples in reference_shapes(random.Random(catalog_name), 30):
        spec = SynthSpec(seed, count, samples, catalog)
        assert generate(spec) == reference_generate(spec), (seed, count, samples)


class _TopRandom(random.Random):
    """Every `random()` draw is the largest float below 1; the other methods stay real."""

    # defined here too, so that randrange keeps drawing from getrandbits, not from random()
    getrandbits = random.Random.getrandbits

    def random(self):
        return 1.0 - 2.0**-53


def test_a_series_that_only_goes_above_100_is_clamped_as_the_reference_clamps_it(monkeypatch):
    # each pair gives cos(~2π)·8.57 then sin(~2π)·8.57: 45 + 8.57·9 and about 45 for cpu
    monkeypatch.setattr(random, "Random", _TopRandom)
    spec = SynthSpec(0, 3, 5, fixture_catalog())
    output = generate(spec)
    values = [line.rsplit(",", 1)[1] for line in output.metrics_csv.decode().splitlines()[1:]]
    assert "100.00" in values and min(map(float, values)) > 40.0
    assert output == reference_generate(spec)


# SHA-256 of (metrics.csv, bindings.csv) for each benchmark workload's inputs,
# as the per-row loop wrote them
PERFBENCH_DIGESTS = {
    ("ingest-day", 1): ("17c3bacce29a06abe6a8d7804bb290bba05a8aa5a8c91bca00766f009d7e0ab7",
                        "e6778dc34b3d72cd92d3e7a4a4924a86987ee73a1328b47b1ed2e17400a62837"),
    ("ingest-day", 3): ("95e4fba199e70c016870fb3a77eb921f45fb4b39c3e064d5e9f8c100ba7a1c66",
                        "b384a399a82de5558e3a75a35459ae8f3ace11a952fe5aa80a529380ffe9a8e5"),
    ("sweep-wide", 1): ("7fb40165c23b44f7890d5b50e4501526df458687f2e13da467cb9aabc817987c",
                        "b9d3ae691a6bb1bd5ceaaf811f5a224e51cc8c7727f2c61d9775da909eede61d"),
    ("sweep-wide", 3): ("95ced860d859c7e1d934339d8170bbdcb8fa455f2a60f63fd0c8accc087d4cc6",
                        "8af7420152f2e9fe9ab3775b2c6919e5c2859656eefa5cd52487ff884e4d9a8c"),
    ("export-wide", 1): ("e00b87270b6f45808491415ebd3603a02f01f04b4d1381f4a5b36d97192deb3d",
                         "b890c6c962c63558da24e57a502cec7c2f08e1beed39c173d5f52fe35e14441e"),
    ("export-wide", 3): ("75a1d1be5e709624cdedf4c35daa90b19bd4e7588500440a94c951d228926161",
                         "7efcef58ae268f7a02ef70092ff2481171939caf29814226f4df9b8f4927f206"),
}


@pytest.mark.parametrize("workload_name, seed", sorted(PERFBENCH_DIGESTS))
def test_benchmark_inputs_keep_their_bytes(workload_name, seed):
    inputs = load_perfbench_inputs()
    workload = inputs.WORKLOADS[workload_name]
    rows = inputs.wide_catalog_rows(seed) if workload.wide_catalog else inputs.fixture_catalog_rows()
    catalog = load_catalog(inputs.catalog_csv(rows))
    output = generate(SynthSpec(seed, workload.workloads, workload.samples, catalog))
    digests = tuple(hashlib.sha256(data).hexdigest() for data in output)
    assert digests == PERFBENCH_DIGESTS[workload_name, seed]


def test_same_seed_same_bytes():
    catalog = fixture_catalog()
    first = generate(SynthSpec(42, 10, 5, catalog))
    second = generate(SynthSpec(42, 10, 5, catalog))
    assert first.metrics_csv == second.metrics_csv
    assert first.bindings_csv == second.bindings_csv


def test_different_seed_different_bytes():
    catalog = fixture_catalog()
    assert generate(SynthSpec(1, 10, 5, catalog)).metrics_csv != \
        generate(SynthSpec(2, 10, 5, catalog)).metrics_csv


def test_row_counts_at_fleet_scale():
    output = generate(SynthSpec(0, 108, 100, fixture_catalog()))
    metric_rows = output.metrics_csv.decode().strip().splitlines()
    binding_rows = output.bindings_csv.decode().strip().splitlines()
    assert len(metric_rows) - 1 == 2 * 108 * 100  # 21,600 samples
    assert len(binding_rows) - 1 == 108


def test_values_within_percent_range():
    output = generate(SynthSpec(3, 20, 30, fixture_catalog()))
    for line in output.metrics_csv.decode().strip().splitlines()[1:]:
        value = float(line.rsplit(",", 1)[1])
        assert 0.0 <= value <= 100.0


def test_generated_data_feeds_the_pipeline():
    catalog = fixture_catalog()
    output = generate(SynthSpec(5, 16, 8, catalog))
    fleet = build_fleet(
        ingest_metrics(output.metrics_csv), catalog, load_bindings(output.bindings_csv))
    assert len(fleet) == 16
    for w in fleet.workloads:
        current = catalog.lookup(w.current_type)
        assert 0.0 <= w.cpu_demand <= current.cpu_capacity
        assert 0.0 <= w.mem_demand <= current.mem_capacity


def test_golden_output_unchanged():
    output = generate(SynthSpec(7, 3, 4, fixture_catalog()))
    assert output.metrics_csv == DATA.joinpath("golden_metrics.csv").read_bytes()
    assert output.bindings_csv == DATA.joinpath("golden_bindings.csv").read_bytes()


def test_synth_spec_invariants():
    catalog = fixture_catalog()
    with pytest.raises(ValueError):
        SynthSpec(0, 0, 5, catalog)
    with pytest.raises(ValueError):
        SynthSpec(0, 5, 1, catalog)


@pytest.mark.parametrize("seed", [None, 1.0, "1", b"1", True], ids=repr)
def test_synth_spec_refuses_a_seed_that_is_not_an_int(seed):
    # random.Random(None) seeds from the OS, so the same spec would give other bytes each call
    with pytest.raises(ValueError, match="seed must be an int"):
        SynthSpec(seed, 5, 2, fixture_catalog())


@pytest.mark.parametrize("workload_count, samples_per_series, name", [
    (2.5, 3, "workload_count"), (2, 3.0, "samples_per_series"), (True, 2, "workload_count"),
    (2, True, "samples_per_series"), ("2", 3, "workload_count"), (2, None, "samples_per_series"),
], ids=repr)
def test_synth_spec_refuses_counts_that_are_not_ints(workload_count, samples_per_series, name):
    # a float count reached range() as a TypeError, and True generated one workload
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        SynthSpec(1, workload_count, samples_per_series, fixture_catalog())


def test_bindings_leave_upsizing_headroom():
    catalog = fixture_catalog()
    max_cpu = max(e.cpu_capacity for e in catalog.entries)
    max_mem = max(e.mem_capacity for e in catalog.entries)
    output = generate(SynthSpec(11, 40, 2, catalog))
    for line in output.bindings_csv.decode().strip().splitlines()[1:]:
        bound = catalog.lookup(line.split(",", 1)[1])
        assert bound.cpu_capacity * 4.0 <= max_cpu
        assert bound.mem_capacity * 4.0 <= max_mem


def test_single_entry_catalog_falls_back_to_itself():
    catalog = Catalog((InstanceType("lin.only.one.r1", 2.0, 4.0, 0.10),))
    output = generate(SynthSpec(1, 3, 2, catalog))
    for line in output.bindings_csv.decode().strip().splitlines()[1:]:
        assert line.endswith("lin.only.one.r1")


def test_bindings_read_back_on_keys_that_need_quoting():
    # keys with a comma, a leading and inner quote, a space, non-ASCII and U+0085
    catalog = load_catalog(DATA.joinpath("catalog_quoted_keys.csv").read_bytes())
    output = generate(SynthSpec(3, 40, 2, catalog))
    bindings = load_bindings(output.bindings_csv)
    assert list(bindings) == [f"w{k:02d}" for k in range(1, 41)]
    assert all(key in catalog for key in bindings.values())
    assert any("," in key for key in bindings.values())
    assert any(key.startswith('"') for key in bindings.values())
