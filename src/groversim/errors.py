"""Exception types shared across the package."""


class GroverSimError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GroverSimError):
    """Invalid input: bad problem geometry, malformed file, bad argument.

    The CLI exits 2 on it and 1 on any other :class:`GroverSimError`."""


class InvariantError(GroverSimError):
    """An internal invariant was violated (norm drift, probability out of
    range, engine disagreement)."""
