"""Base class of the records that validate their input or act as containers.

The other records are `typing.NamedTuple`s. These four (`Catalog`, `Fleet`,
`UtilizationPolicy`, `SynthSpec`) are not tuples: `len()` and `in` mean
something of their own on some of them, and a tuple's `_replace` and
`_make` would build one without its checks.
"""

from __future__ import annotations


class Frozen:
    """Fields listed in `_fields`, set once by `__init__` through `_set`, then read-only.

    A subclass checks its input in `__init__`, lists its storage in
    `__slots__`, and compares, hashes and prints as the tuple of its `_fields`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, and so through its checks
        return type(self), self._values()
