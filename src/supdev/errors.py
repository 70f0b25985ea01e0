"""Exception types shared across the package."""


class SupdevError(Exception):
    """Base class for package errors; front ends print ``{label}: {message}`` and exit ``exit_code``."""

    label, exit_code = "error", 1


class DomainError(SupdevError, ValueError):
    """An input violates a stated precondition (named in the message)."""

    label, exit_code = "domain error", 2


class QuadratureError(SupdevError, ArithmeticError):
    """A quadrature failed to converge within its node budget."""

    label, exit_code = "numerical error", 3


class FactorizationError(SupdevError, ArithmeticError):
    """A covariance could not be factorized even after the jitter retry."""

    label, exit_code = "numerical error", 3


class BudgetError(SupdevError, ValueError):
    """An enumeration, walk or grid would exceed its hard desk-scale budget."""

    label, exit_code = "budget error", 2


class ConfigError(SupdevError, ValueError):
    """A config is malformed (unknown key, bad type, ...) or names a path that cannot be read or written."""

    label, exit_code = "config error", 2
