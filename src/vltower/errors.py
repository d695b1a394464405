"""Typed errors shared across the package."""


class VltowerError(Exception):
    """Base class for every error raised by this package."""


class LaurentParseError(VltowerError, ValueError):
    """Syntax error in a Laurent polynomial literal."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotInSError(VltowerError, ValueError):
    """An operation required an augmentation-1 polynomial and got something else."""


class InsufficientTowerError(VltowerError, ValueError):
    """A denominator or center element is not realizable within the built tower prefix."""


class PreconditionError(VltowerError, ValueError):
    """A documented precondition of an operation was violated by the caller."""


class TheoremViolationError(VltowerError, RuntimeError):
    """An exact computation contradicted a certified structural claim.

    This is never expected to fire; if it does, either the implementation or
    the claim it checks is wrong, and the offending data is in the message.
    """
