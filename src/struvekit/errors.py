"""Exception hierarchy for struvekit.

Every exception raised on purpose by this package derives from
:class:`StruveKitError`, so callers can catch one base class. The concrete
classes also subclass the closest builtin (ValueError, RuntimeError,
ArithmeticError) to stay friendly to generic handlers.
"""


class StruveKitError(Exception):
    """Base class for all struvekit errors."""


class DomainError(StruveKitError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole of the gamma function."""


class ConvergenceDomainError(DomainError):
    """Fox-Wright parameters fall outside the convergence region."""


class NonConvergenceError(StruveKitError, RuntimeError):
    """An iterative scheme exhausted its budget before meeting tolerance."""


class CancellationError(StruveKitError, ArithmeticError):
    """Catastrophic cancellation or float64 overflow: the result cannot be certified."""


class EmptyDomainError(StruveKitError, ValueError):
    """No grid point was tested: none lay in the domain, or every one raised."""
