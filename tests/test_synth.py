from pathlib import Path

import pytest

from rightsizer import (
    SynthSpec,
    build_fleet,
    generate,
    ingest_metrics,
    load_bindings,
    load_catalog,
)

DATA = Path(__file__).parent / "data"


def fixture_catalog():
    return load_catalog(DATA.joinpath("catalog.csv").read_bytes())


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
    from rightsizer import Catalog, InstanceType
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
