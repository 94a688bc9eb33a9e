"""Construction of initial amplitude states.

Supported kinds:

* ``uniform``        every amplitude 1/sqrt(n)
* ``delta``          all weight on one index (default: the last one)
* ``random-real``    iid standard normals, then normalized
* ``random-complex`` independent normals for real and imaginary parts
* ``gaussian-real``  bell-shaped profile over the index axis, normalized
                     so that |a_i|^2 is a Gaussian with the given center
                     and spread

Random kinds are driven by numpy's PCG64 generator seeded with the spec
seed, so identical specs produce byte-identical serialized states; the
generator name is exported as :data:`RNG_ALGORITHM` for output metadata.
Generation is pure, so distinct specs may be sampled concurrently.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import AmplitudeState, SearchConfig, is_integer, load_state
from .errors import ValidationError

KINDS = ("uniform", "delta", "random-real", "random-complex", "gaussian-real")

RNG_ALGORITHM = "numpy-pcg64"

# norm tolerance for ingested states (internal factories stay at 1e-12): the
# analytic P(t) assumes unit norm and the iterated one exceeds it by about
# 2*(||a|| - 1) <= 2e-11, a fifth of compare's 1e-10 --tol and PROBABILITY_SLACK
INGEST_NORM_TOL = 1e-11


@dataclass(frozen=True)
class DistributionSpec:
    """Recipe for an initial state: kind, geometry, seed, kind parameters.

    ``delta_index`` defaults to n-1 (the last index, unmarked whenever the
    marked set sits at the front).  ``gaussian_center`` defaults to the
    middle of the index axis and ``gaussian_spread`` to n/8.
    """

    kind: str
    config: SearchConfig
    seed: int = 0
    delta_index: Optional[int] = None
    gaussian_center: Optional[float] = None
    gaussian_spread: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValidationError(
                f"unknown distribution kind {self.kind!r}; expected one of {KINDS}"
            )
        if not is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ValidationError(
                f"seed must be an unsigned 64-bit integer, got {self.seed!r}"
            )
        object.__setattr__(self, "seed", int(self.seed))
        if self.delta_index is not None and not is_integer(self.delta_index):
            raise ValidationError(f"delta index must be an integer, got {self.delta_index!r}")
        if self.delta_index is not None and not 0 <= self.delta_index < self.config.n:
            raise ValidationError(
                f"delta index {self.delta_index} out of range [0, {self.config.n})"
            )
        if self.gaussian_center is not None and not math.isfinite(self.gaussian_center):
            raise ValidationError(
                f"gaussian center must be finite, got {self.gaussian_center!r}"
            )
        if self.gaussian_spread is not None and not self.gaussian_spread > 0:
            raise ValidationError(
                f"gaussian spread must be positive, got {self.gaussian_spread!r}"
            )
        if self.gaussian_spread is not None and not math.isfinite(self.gaussian_spread):
            raise ValidationError(
                f"gaussian spread must be finite, got {self.gaussian_spread!r}"
            )


def _sample(spec: DistributionSpec) -> np.ndarray:
    n = spec.config.n
    kind = spec.kind
    if kind == "uniform":
        return np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)
    if kind == "delta":
        index = spec.delta_index if spec.delta_index is not None else n - 1
        amps = np.zeros(n, dtype=np.complex128)
        amps[int(index)] = 1.0
        return amps
    if kind == "gaussian-real":
        center = spec.gaussian_center if spec.gaussian_center is not None else (n - 1) / 2.0
        spread = spec.gaussian_spread if spec.gaussian_spread is not None else n / 8.0
        i = np.arange(n, dtype=np.float64)
        # in float64, warnings off: a spread whose square overflows gives the
        # flat profile; a far center or a tiny spread leaves no positive
        # entry, which generate reports
        with np.errstate(all="ignore"):
            profile = np.exp(-((i - center) ** 2) / (4.0 * np.float64(spread) ** 2))
        return profile.astype(np.complex128)
    rng = np.random.default_rng(spec.seed)
    if kind == "random-real":
        return rng.standard_normal(n).astype(np.complex128)
    # random-complex: real and imaginary parts sampled independently
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    return re + 1j * im


def generate(spec: DistributionSpec) -> AmplitudeState:
    """Normalized state at step 0, identical bytes for identical specs.

    A sample with no positive norm raises :class:`ValidationError`.  Only
    a gaussian-real profile far from every index can underflow to the
    zero vector; being deterministic, a resample would too.  A
    statevector too large for the host's memory raises
    :class:`ValidationError` as well.
    """
    try:
        amps = _sample(spec)
        norm = np.linalg.norm(amps)
        if not norm > 0.0:
            raise ValidationError(
                f"sampled a zero vector for kind {spec.kind!r}; "
                "check the distribution parameters"
            )
        return AmplitudeState(spec.config, amps / norm, step=0)
    except MemoryError as exc:  # numpy raises it when the allocation fails
        raise ValidationError(
            f"no memory for a statevector of n={spec.config.n} amplitudes; "
            "plan larger databases with scalar predict "
            "(--kbar0, --lbar0, --sigma-l-sq)"
        ) from exc


def ingest(
    path: str | os.PathLike[str],
    renormalize: bool = False,
    allow_large_r: bool = False,
) -> AmplitudeState:
    """Load and validate the state JSON document at ``path``.

    The norm must be 1 within :data:`INGEST_NORM_TOL` (1e-11).  With
    ``renormalize`` the state is instead scaled to unit norm (catching
    actively broken inputs only); by default nothing is silently fixed,
    so pipeline bugs surface here.  A norm past the double range is
    refused either way.
    """
    state = load_state(path, allow_large_r=allow_large_r)
    with np.errstate(over="ignore"):  # finite amplitudes near the double limit
        norm = state.norm()
    if norm == math.inf:
        raise ValidationError("state norm overflows the double range")
    if renormalize:
        if norm == 0.0:
            raise ValidationError("cannot renormalize a zero state")
        return AmplitudeState(state.config, state.amplitudes / norm, state.step)
    if abs(norm - 1.0) > INGEST_NORM_TOL:
        raise ValidationError(
            f"state norm {norm!r} deviates from 1 by more than {INGEST_NORM_TOL:g}; "
            "pass renormalize to accept and rescale"
        )
    return state
