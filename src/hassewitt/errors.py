"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented precondition (zero where nonzero is
    required, degenerate matrix, composite modulus, wrong degree, ...)."""


class EffortExceededError(DomainError):
    """A factoring or primality operand is past its size limit, or the
    fixed p - 1 and ECM work found no factor; a DomainError, so callers
    that catch that see no change.  The CLI reports it as
    ``effort_exceeded`` (exit 3), not as bad input."""


class InternalError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""
