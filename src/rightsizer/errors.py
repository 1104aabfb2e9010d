"""Exception types shared across the package.

Data errors raised while parsing CSV inputs carry the offending 1-based
physical line number in their message.
"""

from __future__ import annotations


class RightsizerError(Exception):
    """Base class for all data and configuration errors raised here."""


class RowError(RightsizerError):
    """A CSV data error tied to a specific line of the input."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedRowError(RowError):
    """Wrong column count, bad header, or an unparseable field."""


class NonPositiveCapacityError(RowError):
    """Catalog capacities and hourly cost must be strictly positive."""


class DuplicateKeyError(RowError):
    """A key that must be unique within its file appeared twice."""


class ValueOutOfRangeError(RowError):
    """A utilization sample outside the [0, 100] percent range."""


class DuplicateSampleError(RowError):
    """Two samples share the same (workload, metric, timestamp)."""


class NotFoundError(RightsizerError):
    """Catalog lookup for a key that is not present."""


class UnknownTypeError(RightsizerError):
    """A workload references an instance type absent from the catalog."""


class UnboundWorkloadError(RightsizerError):
    """A workload with metrics but no current-type binding."""


class InsufficientSamplesError(RightsizerError):
    """Fewer data points than the statistic requires."""


class InvalidPolicyError(RightsizerError):
    """A utilization factor below 1 or not finite."""


class IndexOutOfRangeError(RightsizerError):
    """A row or column number outside the model's 1-based range."""


class BudgetExceededError(RightsizerError):
    """Brute-force enumeration would exceed its candidate budget."""


class RowMismatchError(RightsizerError):
    """A solution does not cover exactly the fleet's rows, or names a column outside the catalog."""


class InvalidDeltasError(RightsizerError):
    """Sweep factors not strictly increasing, or below 1 or not finite."""


class DegenerateVarianceError(RightsizerError):
    """Pooled variance is zero while the sample means differ."""


class ConfigError(RightsizerError):
    """Invalid command-line flags or run configuration."""
