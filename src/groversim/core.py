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
import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any

import numpy as np

from .errors import ValidationError


def is_integer(value: Any) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def nonnegative_int(value: Any, name: str) -> int:
    """``value`` as an int if it is an integer >= 0, else a ValidationError naming ``name``."""
    if not is_integer(value) or value < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def database_size(n: Any) -> int:
    """``n`` as an int, if it is an integer >= 2."""
    if not is_integer(n) or n < 2:
        raise ValidationError(f"database size must be an integer >= 2, got {n!r}")
    return int(n)


def marked_count(n: int, r: Any) -> int:
    """``r`` as an int, if 1 <= r <= n-1: the count's rule, before any index list."""
    if not is_integer(r):
        raise ValidationError(f"marked count must be an integer, got {r!r}")
    if not 1 <= r <= n - 1:
        raise ValidationError(f"marked count must satisfy 1 <= r <= n-1, got r={r}")
    return int(r)


@dataclass(frozen=True)
class SearchConfig:
    """Problem geometry: database size and the marked index set.

    The marked count r may be anything in 1 <= r <= n-1: the dynamics
    are well-defined there, only r = 0 and r = n degenerate.
    """

    n: int
    marked: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", database_size(self.n))
        if not all(map(is_integer, self.marked)):
            raise ValidationError(f"marked indices must be integers, got {self.marked!r}")
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

    @property
    def r(self) -> int:
        return len(self.marked)

    @cached_property
    def marked_idx(self) -> np.ndarray:
        return np.asarray(self.marked, dtype=np.intp)

    @cached_property
    def unmarked_idx(self) -> np.ndarray | slice:
        """Index of the unmarked amplitudes, in ascending order.

        When the marked set is the prefix 0..r-1 (the CLI's ``--r``) this
        is ``slice(r, None)``: indexing with it is a view, with no gather,
        and a mean over it has the same bits as over the gathered copy,
        since both sum the same values in the same order.  Any other
        marked set gets the gathered index array.
        """
        if self.marked[-1] == self.r - 1:  # sorted and distinct: the prefix
            return slice(self.r, None)
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
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.config.n,):
            raise ValidationError(
                f"expected {self.config.n} amplitudes, got shape {amps.shape}"
            )
        self.amplitudes = amps
        self.step = nonnegative_int(self.step, "step")

    def norm(self) -> float:
        """Euclidean norm of the amplitude vector."""
        return math.sqrt(sum_sq(self.amplitudes))


def sum_sq(amps: np.ndarray) -> float:
    """Sum of |a_i|^2 over a contiguous complex array, as re^2 + im^2.

    One pass of numpy's own loop over the float64 view: no BLAS call,
    whose sum splits by thread count, and no complex ``abs``, whose loop
    is picked by CPU, so the bits are the same on every host.
    """
    f = amps.view(np.float64)
    return float(np.einsum("i,i->", f, f))


def run(state: AmplitudeState, steps: int) -> AmplitudeState:
    """Apply ``steps`` search steps and return the evolved state.

    Each step negates the marked amplitudes (a pi phase), then reflects
    every amplitude about the mean of the whole vector, a -> 2*mean - a,
    in place on one buffer.  The norm is never corrected; drift stays
    below 1e-10 over 1000 steps.
    """
    steps = nonnegative_int(steps, "steps")
    amps = state.amplitudes.copy()
    marked = state.config.marked_idx
    for _ in range(steps):
        amps[marked] = -amps[marked]
        mean = amps.mean()
        np.subtract(2.0 * mean, amps, out=amps)
    return AmplitudeState(state.config, amps, state.step + steps)


def success_probability(state: AmplitudeState) -> float:
    """Probability of measuring a marked state: sum of |k_i|^2."""
    return sum_sq(state.amplitudes[state.config.marked_idx])


def averages(state: AmplitudeState) -> tuple[complex, complex]:
    """(kbar, lbar): the means of the marked and of the unmarked amplitudes."""
    cfg = state.config
    kbar = state.amplitudes[cfg.marked_idx].mean()
    lbar = state.amplitudes[cfg.unmarked_idx].mean()
    return complex(kbar), complex(lbar)


# ---------------------------------------------------------------------------
# State JSON document, written on one line:
#   {"n": int, "marked": [int...], "amplitudes": [[re, im]...], "step": int}
# Floats are emitted via repr, which round-trips every double exactly
# (up to 17 significant digits).  Unknown keys such as "meta" are ignored
# on input.
# ---------------------------------------------------------------------------


def state_to_dict(state: AmplitudeState) -> dict:
    pairs = np.ascontiguousarray(state.amplitudes).view(np.float64).reshape(-1, 2)
    return {
        "n": state.config.n,
        "marked": list(state.config.marked),
        "amplitudes": pairs.tolist(),
        "step": state.step,
    }


def state_from_dict(doc: Any) -> AmplitudeState:
    """Build a state from a parsed JSON document, validating structure.

    Norm is deliberately not checked here; ingestion policy decides that.
    """
    if not isinstance(doc, dict):
        raise ValidationError("state document must be a JSON object")
    for key in ("n", "marked", "amplitudes", "step"):
        if key not in doc:
            raise ValidationError(f"state document missing required key {key!r}")
    n = doc["n"]
    if not is_integer(n):
        raise ValidationError(f"'n' must be an integer, got {n!r}")
    marked = doc["marked"]
    if not isinstance(marked, list) or not all(map(is_integer, marked)):
        raise ValidationError("'marked' must be a list of integers")
    config = SearchConfig(n, tuple(marked))
    raw = doc["amplitudes"]
    try:
        pairs = np.array(raw) if isinstance(raw, list) else None
    except ValueError:  # ragged nesting
        pairs = None
    # a string, null or an integer outside the 64-bit range makes a
    # non-numeric array; a JSON true or false among numbers reads as 1 or 0
    if pairs is None or pairs.shape != (n, 2) or pairs.dtype.kind not in "fiu" or (
        bool in set(map(type, chain.from_iterable(raw)))
    ):
        raise ValidationError(f"'amplitudes' must be a list of {n} [re, im] number pairs")
    pairs = pairs.astype(np.float64, copy=False)
    if not np.all(np.isfinite(pairs)):
        raise ValidationError("amplitudes must be finite")
    step = nonnegative_int(doc["step"], "'step'")
    # a view keeps the sign of zero parts, which re + 1j*im would lose
    return AmplitudeState(config, pairs.view(np.complex128).reshape(n), step)


def save_state(state: AmplitudeState, path: str | os.PathLike[str]) -> None:
    """Write the state JSON document to ``path`` as one line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(state_to_dict(state)) + "\n")


def load_state(path: str | os.PathLike[str]) -> AmplitudeState:
    """Parse the state JSON document at ``path``.

    Structural validation only; see :func:`groversim.distributions.ingest`
    for the norm-checking entry point.
    """
    return state_from_dict(read_json(path, "state"))


def read_json(path: str | os.PathLike[str], what: str) -> Any:
    """Parse the JSON file at ``path``.

    Any failure to open, decode or parse it raises :class:`ValidationError`
    naming the ``what`` file ("state", "config").
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, bad UTF-8 or an integer over Python's digit
        # limit; RecursionError: nesting deeper than the parser's stack
        raise ValidationError(f"malformed {what} file: {exc}") from exc
