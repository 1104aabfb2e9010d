"""Deterministic synthetic telemetry and bindings for desk-scale pipeline runs."""

from __future__ import annotations

import random
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


def generate(spec: SynthSpec) -> SynthOutput:
    """Emit metrics and bindings CSV bytes in the exact external formats.

    The same seed always yields byte-identical output. Each workload gets a
    current type sampled from the catalog's bindable shapes and per-workload
    mean/spread parameters; sample values are gaussian draws clamped to
    [0, 100].
    """
    rng = random.Random(spec.seed)
    width = len(str(spec.workload_count))
    metric_lines = [csv_text(METRICS_HEADER, ())]
    bindings = []
    pool = _binding_pool(spec.catalog)
    for k in range(1, spec.workload_count + 1):
        workload_id = f"w{k:0{width}d}"
        current = pool[rng.randrange(len(pool))]
        bindings.append((workload_id, current.key))
        # overprovisioned-fleet telemetry: low means, per-workload spread
        series = (
            ("cpu", rng.uniform(5.0, 45.0), rng.uniform(1.0, 9.0)),
            ("mem", rng.uniform(8.0, 55.0), rng.uniform(1.0, 8.0)),
        )
        for metric, mean, spread in series:
            for s in range(spec.samples_per_series):
                value = min(max(rng.gauss(mean, spread), 0.0), 100.0)
                timestamp = BASE_TIMESTAMP + s * SAMPLE_INTERVAL
                # Joined by hand, not through csv_text, for two reasons: no
                # field can need quoting (a generated id, an int, a fixed
                # metric name, a :.2f number), and csv.writer made generate
                # 1.5x slower at 300 workloads x 288 samples.
                metric_lines.append(f"{workload_id},{timestamp},{metric},{value:.2f}\n")
    return SynthOutput(
        metrics_csv="".join(metric_lines).encode("utf-8"),
        bindings_csv=csv_text(BINDINGS_HEADER, bindings).encode("utf-8"),
    )
