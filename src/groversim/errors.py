"""Exception types shared across the package."""


class GroverSimError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GroverSimError):
    """Invalid input: bad problem geometry, malformed file, bad argument."""


class NormalizationError(ValidationError):
    """State vector norm is outside the accepted tolerance."""


class ComplexRatioError(GroverSimError):
    """The marked/unmarked average ratio is complex, so the single-phase
    sinusoidal form (``phase_form``) and the small-r/n expansion
    (``optimal_time_approx``) do not apply.  Planning with
    ``optimal_time`` works for every ratio and never raises it."""


class ScalarOnlyError(GroverSimError):
    """Operation needs per-state deviation vectors, but the solution was
    built from summary statistics only."""


class InvariantError(GroverSimError):
    """An internal invariant was violated (norm drift, probability out of
    range, engine disagreement)."""
