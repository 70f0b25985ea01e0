"""Exception types shared across the package."""


class SupdevError(Exception):
    """Base class for package errors."""


class DomainError(SupdevError, ValueError):
    """An input violates a stated precondition (named in the message)."""


class QuadratureError(SupdevError, ArithmeticError):
    """A quadrature failed to converge within its node budget."""


class FactorizationError(SupdevError, ArithmeticError):
    """A covariance could not be factorized even after the jitter retry."""


class BudgetError(SupdevError, ValueError):
    """An enumeration, walk or grid would exceed its hard desk-scale budget."""


class CheckError(SupdevError, AssertionError):
    """An invariant the computation relies on failed (names it).  Library
    functions return both sides of an inequality instead of raising on it;
    ``bounds.beta_block`` raises the one CheckError left."""


class ConfigError(SupdevError, ValueError):
    """An experiment config is malformed (unknown key, bad type, ...)."""
