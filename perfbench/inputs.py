"""Workload definitions and seeded input generation for the benchmark.

Every input the program sees is a CSV file written here from the workload
seed: a catalog (either the 21 fixture shapes or a ~400-type "wide" catalog
derived from them) plus metrics and bindings from `rightsizer.synth`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# The fixture shapes: (os, family, size, cpu ECU, mem GiB, USD/hour) in us-east.
FIXTURE_SHAPES = (
    ("lin", "t2", "nano", 1.0, 0.5, 0.0058),
    ("lin", "t2", "micro", 1.0, 1.0, 0.0116),
    ("lin", "t2", "small", 1.0, 2.0, 0.023),
    ("lin", "t2", "medium", 2.0, 4.0, 0.0464),
    ("lin", "t2", "large", 2.0, 8.0, 0.0928),
    ("lin", "t2", "xlarge", 4.0, 16.0, 0.1856),
    ("lin", "t2", "2xlarge", 8.0, 32.0, 0.3712),
    ("lin", "m4", "large", 6.5, 8.0, 0.1),
    ("lin", "m4", "xlarge", 13.0, 16.0, 0.2),
    ("lin", "m4", "2xlarge", 26.0, 32.0, 0.4),
    ("lin", "m4", "4xlarge", 53.5, 64.0, 0.8),
    ("lin", "m4", "10xlarge", 124.5, 160.0, 2.0),
    ("lin", "m4", "16xlarge", 188.0, 256.0, 3.2),
    ("lin", "r4", "large", 7.0, 15.25, 0.133),
    ("lin", "r4", "xlarge", 13.5, 30.5, 0.266),
    ("lin", "r4", "2xlarge", 27.0, 61.0, 0.532),
    ("lin", "r4", "4xlarge", 53.0, 122.0, 1.064),
    ("lin", "r4", "8xlarge", 99.0, 244.0, 2.128),
    ("lin", "r4", "16xlarge", 195.0, 488.0, 4.256),
    ("win", "t2", "medium", 2.0, 4.0, 0.0644),
    ("win", "m4", "large", 6.5, 8.0, 0.192),
)
FIXTURE_REGION = "us-east"

WIDE_REGIONS = ("us-east", "us-west", "eu-west", "eu-central", "ap-south")
WIDE_GENERATIONS = 4
# Larger than every perturbed shape on both resources, so the types synth
# binds (those some type can host at 4x) are all hosted by it at delta 4.0.
DOMINANT_SHAPE = ("lin", "x1", "32xlarge", 349.0, 1952.0, 13.338)

CATALOG_HEADER = "key,cpu_ecu,mem_gib,cost_per_hour"
PLACEABLE_DELTA = 4.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json says why each was chosen."""

    name: str
    command: tuple[str, ...]  # rightsizer CLI subcommand and its flags, minus file paths
    workloads: int
    samples: int
    wide_catalog: bool


WORKLOADS = {w.name: w for w in (
    Workload("ingest-day", ("optimize", "--delta", "1.5", "--format", "json"), 300, 288, False),
    Workload("sweep-wide", ("sweep", "--format", "text"), 500, 12, True),
    Workload("export-wide", ("export-ampl", "--delta", "1.5"), 1500, 12, True),
)}


def fixture_catalog_rows() -> list[tuple[str, float, float, float]]:
    return [(f"{os_}.{family}.{size}.{FIXTURE_REGION}", cpu, mem, cost)
            for os_, family, size, cpu, mem, cost in FIXTURE_SHAPES]


def _generation(family: str, step: int) -> str:
    # 'm4' -> 'm5', 'm6', ...: a later generation of the same family
    return family[:-1] + str(int(family[-1]) + step)


def wide_catalog_rows(seed: int) -> list[tuple[str, float, float, float]]:
    """Fixture shapes across regions and generations with seeded perturbations.

    Later generations get more CPU per dollar, each region has its own price
    level, and every type's capacities and price get their own random
    factors, so neighbouring types differ enough that a workload's cheapest
    feasible type steps several times across the sweep's factors.
    """
    rng = random.Random(f"wide-catalog:{seed}")
    rows = []
    for region in WIDE_REGIONS:
        region_price = rng.uniform(0.9, 1.3)
        for g in range(WIDE_GENERATIONS):
            for os_, family, size, cpu, mem, cost in FIXTURE_SHAPES:
                rows.append((
                    f"{os_}.{_generation(family, g)}.{size}.{region}",
                    round(cpu * (1.0 + 0.12 * g) * rng.uniform(0.85, 1.15), 2),
                    round(mem * rng.uniform(0.85, 1.15), 2),
                    round(cost * region_price * (1.0 - 0.04 * g) * rng.uniform(0.85, 1.15), 4),
                ))
        os_, family, size, cpu, mem, cost = DOMINANT_SHAPE
        rows.append((f"{os_}.{family}.{size}.{region}", cpu, mem,
                     round(cost * region_price, 4)))
    return rows


def catalog_csv(rows) -> bytes:
    lines = [CATALOG_HEADER] + [f"{key},{cpu!r},{mem!r},{cost!r}" for key, cpu, mem, cost in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def check_placeable(catalog, bindings_csv: bytes) -> None:
    """Raise unless every bound type is hosted at PLACEABLE_DELTA times its capacity.

    Demand never exceeds the bound type's capacity, so this makes every
    workload placeable at PLACEABLE_DELTA.
    """
    bound_keys = {line.split(",")[1] for line in bindings_csv.decode().splitlines()[1:]}
    for key in sorted(bound_keys):
        bound = catalog.lookup(key)
        cpu_needed = bound.cpu_capacity * PLACEABLE_DELTA
        mem_needed = bound.mem_capacity * PLACEABLE_DELTA
        if not any(cpu_needed <= e.cpu_capacity and mem_needed <= e.mem_capacity
                   for e in catalog.entries):
            raise ValueError(f"bound type {bound.key} has no host at {PLACEABLE_DELTA}x")


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> dict[str, Path]:
    """Generate and write catalog.csv, metrics.csv and bindings.csv; return their paths.

    The catalog is loaded back with the program's own loader and checked to
    host every bound type at 4x.
    """
    # imported here: the caller puts the checkout's src/ on sys.path first
    from rightsizer import SynthSpec, generate, load_catalog

    rows = wide_catalog_rows(seed) if workload.wide_catalog else fixture_catalog_rows()
    catalog_bytes = catalog_csv(rows)
    catalog = load_catalog(catalog_bytes)
    if len(catalog) != len(rows):
        raise ValueError(f"catalog loaded {len(catalog)} of {len(rows)} rows")
    synth = generate(SynthSpec(seed, workload.workloads, workload.samples, catalog))
    check_placeable(catalog, synth.bindings_csv)

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"catalog": out_dir / "catalog.csv",
             "metrics": out_dir / "metrics.csv",
             "bindings": out_dir / "bindings.csv"}
    paths["catalog"].write_bytes(catalog_bytes)
    paths["metrics"].write_bytes(synth.metrics_csv)
    paths["bindings"].write_bytes(synth.bindings_csv)
    return paths


def cli_args(workload: Workload, inputs: dict[str, Path], out_dir: Path) -> list[str]:
    return [*workload.command,
            "--catalog", str(inputs["catalog"]),
            "--metrics", str(inputs["metrics"]),
            "--bindings", str(inputs["bindings"]),
            "--out", str(out_dir)]
