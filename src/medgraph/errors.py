"""Exception types shared across the package, and the count check that
raises one."""

import numbers


class MedgraphError(Exception):
    """Base class for all domain errors."""


class GraphError(MedgraphError):
    """Invalid graph structure or construction input."""


class UnknownNodeError(GraphError):
    """A query referenced a node name that is not in the graph."""


class ParseError(MedgraphError):
    """Graph DSL parse failure; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class QueryError(MedgraphError):
    """Malformed separation query (overlapping sets, baseline target, ...)."""


class SizeError(MedgraphError):
    """An exact computation exceeded its configured budget."""


class ConfigurationError(MedgraphError):
    """Incomplete or inconsistent role/model configuration."""


class DataError(MedgraphError):
    """Invalid dataset contents (overlapping intervals, empty risk set, ...)."""


class EstimationError(MedgraphError):
    """Estimator failure: non-convergence, singular information, no events."""


class IdentificationError(MedgraphError):
    """The moment equations could not be solved (nonpositive variance, ...)."""


class UndefinedConditionalError(MedgraphError):
    """A required conditional probability has a zero-probability condition."""


def check_count(value, what, minimum, error=ConfigurationError):
    """Raise ``error`` unless ``value`` is an integer >= ``minimum``; a bool
    is not a count."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise error(f"{what} must be an integer >= {minimum}, got {value!r}")
