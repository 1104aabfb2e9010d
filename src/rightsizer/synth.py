"""Deterministic synthetic telemetry and bindings for desk-scale pipeline runs."""

from __future__ import annotations

import random
from itertools import islice
from math import cos, log, sin, sqrt, tau
from typing import NamedTuple

from ._csvio import csv_text
from ._frozen import Frozen
from .catalog import Catalog
from .metrics import BINDINGS_HEADER, METRICS_HEADER

BASE_TIMESTAMP = 1_704_067_200  # fixed epoch anchor keeps outputs reproducible
SAMPLE_INTERVAL = 300           # seconds between consecutive samples
BINDING_HEADROOM = 4.0          # bind only shapes the catalog can host at 4x demand


class SynthSpec(Frozen):
    __slots__ = _fields = ("seed", "workload_count", "samples_per_series", "catalog")

    def __init__(self, seed: int, workload_count: int, samples_per_series: int, catalog: Catalog):
        # random.Random(None) seeds from the OS, so only an int seed gives the same bytes each
        # run; range() takes only int counts, and a bool count would pass as 0 or 1
        for name, value in zip(self._fields, (seed, workload_count, samples_per_series)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if workload_count < 1:
            raise ValueError("workload_count must be >= 1")
        if samples_per_series < 2:
            raise ValueError("samples_per_series must be >= 2")
        self._set(seed=seed, workload_count=workload_count,
                  samples_per_series=samples_per_series, catalog=catalog)


class SynthOutput(NamedTuple):
    metrics_csv: bytes
    bindings_csv: bytes


def _binding_pool(catalog: Catalog) -> tuple:
    # A workload already running the catalog's largest shape cannot be given
    # growth headroom, which makes every what-if case past 1.0 unplaceable.
    # Bind only types the catalog can still host at BINDING_HEADROOM times
    # full utilization; fall back to the whole catalog when nothing qualifies.
    max_cpu = max(e.cpu_capacity for e in catalog.entries)
    max_mem = max(e.mem_capacity for e in catalog.entries)
    pool = tuple(e for e in catalog.entries
                 if e.cpu_capacity * BINDING_HEADROOM <= max_cpu
                 and e.mem_capacity * BINDING_HEADROOM <= max_mem)
    return pool or catalog.entries


def _normals(random):
    """Standard normals drawn from `random()` exactly as `random.gauss` draws them.

    Each Box–Muller pair takes two draws, x then u, and gives cos(2πx)·r
    then sin(2πx)·r, with r = sqrt(-2·log(1 - u)). The pair's second value
    waits for the next request, as `gauss_next` does, and no draw is made
    before a value is asked for, so the caller's other draws keep their place.
    """
    while True:
        x2pi, g2rad = random() * tau, sqrt(-2.0 * log(1.0 - random()))
        yield cos(x2pi) * g2rad
        yield sin(x2pi) * g2rad


def generate(spec: SynthSpec) -> SynthOutput:
    """Emit metrics and bindings CSV bytes in the exact external formats.

    The same seed always yields byte-identical output. Each workload gets a
    current type sampled from the catalog's bindable shapes and per-workload
    mean/spread parameters; sample values are gaussian draws clamped to
    [0, 100]. The metrics bytes are the parts of `generate_parts`, joined.
    """
    metrics_parts, bindings_csv = generate_parts(spec)
    return SynthOutput(metrics_csv=b"".join(metrics_parts), bindings_csv=bindings_csv)


def generate_parts(spec: SynthSpec) -> tuple[list[bytes], bytes]:
    """`generate`'s metrics bytes as parts to write in order, and its bindings bytes.

    The header is the first part and each series one more, so a caller that
    writes the parts without joining them never holds the file twice.

    Each series takes its standard normals from `_normals`: Box–Muller pairs
    from `rng.random()`, drawn in the order `random.gauss` draws them (the
    same source on Python 3.10 to 3.13). With an odd sample count, a pair's
    second value goes from a workload's cpu series to its mem series, as
    `gauss_next` carries it; a workload draws its four `uniform` values
    before both series, so it takes n pairs and leaves none to the next. So
    the bytes did not change when one `rng.gauss(mean, spread)` and one
    f-string per row gave way to one pass per series; `tests/test_synth.py`
    keeps that per-row loop as the oracle `reference_generate`.
    """
    rng = random.Random(spec.seed)
    n = spec.samples_per_series
    width = len(str(spec.workload_count))
    normals = _normals(rng.random)
    # One `%` template per metric formats a whole series, and each series is
    # encoded at once. No field can need quoting (a generated id, an int, a
    # fixed metric name, a %.2f number), and csv.writer made generate 1.5x slower.
    templates = {m: "".join(f"%s,{BASE_TIMESTAMP + s * SAMPLE_INTERVAL},{m},%.2f\n" for s in range(n))
                 for m in ("cpu", "mem")}
    parts = [csv_text(METRICS_HEADER, ()).encode("utf-8")]
    bindings = []
    pool = _binding_pool(spec.catalog)
    for k in range(1, spec.workload_count + 1):
        workload_id = f"w{k:0{width}d}"
        bindings.append((workload_id, pool[rng.randrange(len(pool))].key))
        # overprovisioned-fleet telemetry: low means, per-workload spread
        series = (
            ("cpu", rng.uniform(5.0, 45.0), rng.uniform(1.0, 9.0)),
            ("mem", rng.uniform(8.0, 55.0), rng.uniform(1.0, 8.0)),
        )
        row_fields = [workload_id, None] * n
        for metric, mean, spread in series:
            values = [mean + z * spread for z in islice(normals, n)]
            if min(values) < 0.0 or max(values) > 100.0:
                values = [min(max(v, 0.0), 100.0) for v in values]
            row_fields[1::2] = values
            parts.append((templates[metric] % tuple(row_fields)).encode("utf-8"))
    return parts, csv_text(BINDINGS_HEADER, bindings).encode("utf-8")
