"""Instance type catalog: loading, validation, and keyed lookup.

The catalog is the set of purchasable machine shapes a workload can be
assigned to. It is file-based and immutable after construction; entry order
fixes the column order of every matrix built from it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._csvio import _CONTROL, csv_text, identifier, iter_rows, number
from ._frozen import Frozen
from .errors import (
    DuplicateKeyError,
    MalformedRowError,
    NonPositiveCapacityError,
    NotFoundError,
)

CATALOG_HEADER = ("key", "cpu_ecu", "mem_gib", "cost_per_hour")

# an hourly price times this is its annual figure, unless a caller says otherwise
HOURS_PER_YEAR = 8760

# keys look like '<os>.<model...>.<region>', e.g. 'rhel.m4.large.us-east'
MIN_KEY_SEGMENTS = 3


class InstanceType(NamedTuple):
    """One machine shape with published capacities and on-demand price."""

    key: str
    cpu_capacity: float  # ECU
    mem_capacity: float  # GiB
    hourly_cost: float   # USD/hour


class Catalog(Frozen):
    """Ordered collection of candidate instance types with unique keys."""

    __slots__ = ("entries", "_index")
    _fields = ("entries",)

    def __init__(self, entries: tuple[InstanceType, ...]):
        if not entries:
            raise ValueError("catalog must contain at least one instance type")
        index = {e.key: e for e in entries}
        if len(index) != len(entries):
            raise ValueError("catalog keys must be unique")
        for key in filter(_CONTROL.search, index):
            raise ValueError(f"catalog key {key!r} holds a control character")
        for e in entries:
            if not (0 < e.cpu_capacity < math.inf and 0 < e.mem_capacity < math.inf
                    and 0 < e.hourly_cost < math.inf):
                raise ValueError(f"catalog type {e.key!r}: capacities and cost must be finite and positive")
        self._set(entries=entries, _index=index)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def lookup(self, key: str) -> InstanceType:
        """Return the entry with exactly this key (case-sensitive).

        Raises NotFoundError when the key is absent, which typically means a
        workload's current type is not covered by the catalog.
        """
        try:
            return self._index[key]
        except KeyError:
            raise NotFoundError(f"instance type {key!r} is not in the catalog") from None


def _valid_key(key: str) -> bool:
    segments = key.split(".")
    return len(segments) >= MIN_KEY_SEGMENTS and all(segments)


def load_catalog(source) -> Catalog:
    """Parse catalog CSV (header ``key,cpu_ecu,mem_gib,cost_per_hour``).

    Row order is preserved and becomes the canonical column order. Raises
    MalformedRowError, NonPositiveCapacityError, or DuplicateKeyError, each
    naming the offending line.
    """
    entries: list[InstanceType] = []
    seen: set[str] = set()
    for line_no, (key, *fields) in iter_rows(source, CATALOG_HEADER):
        if not _valid_key(key):
            raise MalformedRowError(
                line_no, f"key {key!r} must have at least {MIN_KEY_SEGMENTS} non-empty dot-separated segments")
        identifier(line_no, "key", key)
        cpu, mem, cost = (number(line_no, name, text) for name, text in zip(CATALOG_HEADER[1:], fields))
        if cpu <= 0 or mem <= 0 or cost <= 0:
            raise NonPositiveCapacityError(line_no, f"{key!r}: capacities and cost must be positive")
        if key in seen:
            raise DuplicateKeyError(line_no, f"duplicate key {key!r}")
        seen.add(key)
        entries.append(InstanceType(key, cpu, mem, cost))
    if not entries:
        raise MalformedRowError(1, "catalog has no data rows")
    return Catalog(tuple(entries))


def dump_catalog(catalog: Catalog) -> bytes:
    """Serialize a catalog back to CSV; loading the result reproduces it."""
    # a float's str is its repr, which reads back as the same float
    return csv_text(CATALOG_HEADER, catalog.entries).encode()
