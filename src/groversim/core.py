"""Exact amplitude-level simulation of the generalized Grover iteration.

One search step acts on an explicit complex statevector: every marked
amplitude picks up a pi phase, then all amplitudes are reflected about
the mean of the whole vector.  States are never renormalized, so the
norm of a long run is a genuine measure of accumulated rounding error.

All operations are pure: they return new states and never mutate their
inputs, which makes states plain values that are safe to hand between
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Any, Union

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class SearchConfig:
    """Problem geometry: database size and the marked index set.

    By default the marked count r is restricted to 1 <= r <= n/2; pass
    ``allow_large_r=True`` to admit r up to n-1 (the dynamics stay
    well-defined there, only r = 0 and r = n degenerate).
    """

    n: int
    marked: tuple[int, ...]
    allow_large_r: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValidationError(f"database size must be an integer >= 2, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        marked = tuple(int(i) for i in self.marked)
        object.__setattr__(self, "marked", tuple(sorted(marked)))
        r = len(self.marked)
        if r == 0:
            raise ValidationError("at least one marked state is required")
        if len(set(self.marked)) != r:
            raise ValidationError("marked indices must be distinct")
        if self.marked[0] < 0 or self.marked[-1] >= self.n:
            raise ValidationError(
                f"marked indices must lie in [0, {self.n}), got {self.marked}"
            )
        if r == self.n:
            raise ValidationError("all states marked (r = n) is degenerate")
        if not self.allow_large_r and 2 * r > self.n:
            raise ValidationError(
                f"marked count r={r} exceeds n/2={self.n / 2:g}; "
                "pass allow_large_r=True to override"
            )

    @property
    def r(self) -> int:
        return len(self.marked)

    @cached_property
    def marked_idx(self) -> np.ndarray:
        return np.asarray(self.marked, dtype=np.intp)

    @cached_property
    def unmarked_idx(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[self.marked_idx] = True
        return np.flatnonzero(~mask)


@dataclass(eq=False)
class AmplitudeState:
    """Explicit complex statevector at an integer time step."""

    config: SearchConfig
    amplitudes: np.ndarray
    step: int = 0

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.config.n,):
            raise ValidationError(
                f"expected {self.config.n} amplitudes, got shape {amps.shape}"
            )
        self.amplitudes = amps
        if not isinstance(self.step, (int, np.integer)) or self.step < 0:
            raise ValidationError(f"step must be a non-negative integer, got {self.step!r}")
        self.step = int(self.step)

    def norm(self) -> float:
        """Euclidean norm of the amplitude vector."""
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class SummaryStats:
    """Marked/unmarked averages and variances of an amplitude vector.

    These four numbers are sufficient statistics for the whole dynamics:
    the averages evolve on their own, and the per-state spreads never
    change.
    """

    kbar: complex
    lbar: complex
    sigma_k_sq: float
    sigma_l_sq: float

    def weighted_norm(self, n: int, r: int) -> float:
        """r(sigma_k^2 + |kbar|^2) + (n-r)(sigma_l^2 + |lbar|^2).

        Equals the squared norm of any state with these statistics, so
        it must be 1 for a normalized state.
        """
        return r * (self.sigma_k_sq + abs(self.kbar) ** 2) + (n - r) * (
            self.sigma_l_sq + abs(self.lbar) ** 2
        )


def run(state: AmplitudeState, steps: int) -> AmplitudeState:
    """Apply ``steps`` search steps and return the evolved state.

    Each step negates the marked amplitudes (a pi phase), then reflects
    every amplitude about the mean of the whole vector, a -> 2*mean - a,
    in place on one buffer.  The norm is never corrected; drift stays
    below 1e-10 over 1000 steps.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValidationError(f"steps must be a non-negative integer, got {steps!r}")
    amps = state.amplitudes.copy()
    marked = state.config.marked_idx
    for _ in range(int(steps)):
        amps[marked] = -amps[marked]
        mean = amps.mean()
        np.subtract(2.0 * mean, amps, out=amps)
    return AmplitudeState(state.config, amps, state.step + int(steps))


def success_probability(state: AmplitudeState) -> float:
    """Probability of measuring a marked state: sum of |k_i|^2."""
    marked = state.amplitudes[state.config.marked_idx]
    return float(np.sum(np.abs(marked) ** 2))


def averages(state: AmplitudeState) -> tuple[complex, complex]:
    """(kbar, lbar): the means of the marked and of the unmarked amplitudes."""
    cfg = state.config
    kbar = state.amplitudes[cfg.marked_idx].mean()
    lbar = state.amplitudes[cfg.unmarked_idx].mean()
    return complex(kbar), complex(lbar)


def summary_stats(state: AmplitudeState) -> SummaryStats:
    """Averages and variances over the marked and unmarked partitions.

    Variances use |.|^2 of the deviation, so they are real and
    non-negative for complex amplitudes.
    """
    cfg = state.config
    kbar, lbar = averages(state)
    marked = state.amplitudes[cfg.marked_idx]
    unmarked = state.amplitudes[cfg.unmarked_idx]
    sigma_k_sq = float(np.mean(np.abs(marked - kbar) ** 2))
    sigma_l_sq = float(np.mean(np.abs(unmarked - lbar) ** 2))
    return SummaryStats(kbar, lbar, sigma_k_sq, sigma_l_sq)


# ---------------------------------------------------------------------------
# State JSON document:
#   {"n": int, "marked": [int...], "amplitudes": [[re, im]...], "step": int}
# Floats are emitted via repr, which round-trips every double exactly
# (up to 17 significant digits).  Unknown keys such as "meta" are ignored
# on input.
# ---------------------------------------------------------------------------


def state_to_dict(state: AmplitudeState, meta: dict[str, Any] | None = None) -> dict:
    doc: dict[str, Any] = {
        "n": state.config.n,
        "marked": [int(i) for i in state.config.marked],
        "amplitudes": [[z.real, z.imag] for z in state.amplitudes.tolist()],
        "step": state.step,
    }
    if meta:
        doc["meta"] = meta
    return doc


def state_from_dict(doc: Any, allow_large_r: bool = False) -> AmplitudeState:
    """Build a state from a parsed JSON document, validating structure.

    Norm is deliberately not checked here; ingestion policy decides that.
    """
    if not isinstance(doc, dict):
        raise ValidationError("state document must be a JSON object")
    for key in ("n", "marked", "amplitudes", "step"):
        if key not in doc:
            raise ValidationError(f"state document missing required key {key!r}")
    n = doc["n"]
    if not isinstance(n, int):
        raise ValidationError(f"'n' must be an integer, got {n!r}")
    marked = doc["marked"]
    if not isinstance(marked, list) or not all(isinstance(i, int) for i in marked):
        raise ValidationError("'marked' must be a list of integers")
    config = SearchConfig(n, tuple(marked), allow_large_r=allow_large_r)
    raw = doc["amplitudes"]
    if not isinstance(raw, list) or len(raw) != n:
        raise ValidationError(f"'amplitudes' must be a list of {n} [re, im] pairs")
    amps = np.empty(n, dtype=np.complex128)
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) for v in pair)
        ):
            raise ValidationError(f"amplitude {i} is not a [re, im] pair: {pair!r}")
        amps[i] = complex(pair[0], pair[1])
    if not np.all(np.isfinite(amps.view(np.float64))):
        raise ValidationError("amplitudes must be finite")
    step = doc["step"]
    if not isinstance(step, int) or step < 0:
        raise ValidationError(f"'step' must be a non-negative integer, got {step!r}")
    return AmplitudeState(config, amps, step)


PathOrFile = Union[str, Path, IO[str]]


def save_state(state: AmplitudeState, dest: PathOrFile, meta: dict[str, Any] | None = None) -> None:
    """Write the state JSON document to a path or open text file."""
    doc = state_to_dict(state, meta=meta)
    if hasattr(dest, "write"):
        json.dump(doc, dest, indent=2)
        dest.write("\n")
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


def load_state(source: PathOrFile, allow_large_r: bool = False) -> AmplitudeState:
    """Parse a state JSON document from a path or open text file.

    Structural validation only; see :func:`groversim.distributions.ingest`
    for the norm-checking entry point.
    """
    try:
        if hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read state file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed state JSON: {exc}") from exc
    return state_from_dict(doc, allow_large_r=allow_large_r)
