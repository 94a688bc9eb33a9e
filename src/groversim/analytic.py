"""Closed-form dynamics, success-probability bound, and measurement planning.

The marked and unmarked average amplitudes obey a coupled linear
recurrence whose solution is a pure rotation with angle

    omega = 2*arcsin(sqrt(r/n)),   i.e.  cos(omega) = 1 - 2r/n,

so any time step can be evaluated in O(1) from the initial averages
alone.  Per-state amplitudes differ from the averages by deviations
that the dynamics never change (up to a sign alternation on the
unmarked side), which gives an O(n) reconstruction of the full vector
at any time.

The probability of measuring a marked state is capped by

    p_max = 1 - (n - r) * sigma_l^2(0),

which the success probability p_max - (n-r)|lbar(t)|^2 reaches where
the unmarked average vanishes.  For any complex initial averages the
squared unmarked average is a single sinusoid,

    |lbar(t)|^2 = M + R*cos(2*omega*t + psi),

so one closed form plans every state: its minima sit at
t = (pi - psi)/(2*omega) + j*pi/omega.  The minimum M - R is zero
exactly when the ratio kbar(0)/lbar(0) is real; for a complex ratio the
largest probability reachable is p_max - (n-r)(M - R).

Solutions are immutable after construction; every function here is
pure and safe for concurrent use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import AmplitudeState, SearchConfig, averages, is_integer, sum_sq
from .errors import InvariantError, ValidationError

# Relative tolerance on Im(kbar0 * conj(lbar0)) / |kbar0 * lbar0| below
# which the average ratio is treated as real.
REAL_RATIO_RTOL = 1e-9

# Probability values may stray this far outside [0, 1] before the
# invariant check trips.
PROBABILITY_SLACK = 1e-10

# Planning methods, named by the bound t_real reaches: p_max where the
# unmarked average vanishes (real ratio), or the lower reachable cap
# (complex ratio).
CLOSED_FORM = "closed-form"
CLOSED_FORM_COMPLEX = "closed-form-complex"


@dataclass(frozen=True)
class MeasurementPlan:
    """A chosen measurement step and its predicted success probability."""

    j: int
    t_real: float
    t_step: int
    predicted_success: float
    method: str


@dataclass(frozen=True, eq=False)
class ClosedFormSolution:
    """Everything needed to evaluate the dynamics at any time in O(1).

    ``alpha``, ``beta``, ``phi`` give the single-phase sinusoidal form
    kbar(t) = alpha*sin(omega*t + phi), lbar(t) = beta*cos(omega*t + phi);
    they are None when the average ratio is complex (no single real
    phase exists).  ``dev`` holds the n per-state deviations at time
    zero: marked entries relative to kbar(0), the others relative to
    lbar(0).  It is None in scalar-only mode, where the solution was
    built from summary statistics alone and only planning operations
    are available.
    """

    n: int
    r: int
    omega: float
    kbar0: complex
    lbar0: complex
    sigma_l_sq: float
    p_max: float
    alpha: Optional[complex]
    beta: Optional[complex]
    phi: Optional[float]
    dev: Optional[np.ndarray] = None
    config: Optional[SearchConfig] = None

    @property
    def real_ratio(self) -> bool:
        """Whether the single-phase sinusoidal form applies."""
        return self.phi is not None

    @property
    def p_reachable(self) -> float:
        """Largest success probability at real times, p_max - (n-r)(M - R).

        Equals p_max exactly when the average ratio is real.
        """
        return self.p_max - (self.n - self.r) * _unmarked_swing(self)[1]

    @property
    def scalar_only(self) -> bool:
        return self.dev is None


def _rotation_angle(n: int, r: int) -> float:
    # better conditioned than acos(1 - 2r/n) when r/n is tiny
    return 2.0 * math.asin(math.sqrt(r / n))


def _is_real_ratio(kbar0: complex, lbar0: complex) -> bool:
    cross = kbar0 * lbar0.conjugate()
    scale = abs(kbar0) * abs(lbar0)
    if scale == 0.0:
        return True
    return abs(cross.imag) <= REAL_RATIO_RTOL * scale


def _phase_parameters(
    n: int, r: int, kbar0: complex, lbar0: complex
) -> tuple[complex, complex, float]:
    """(alpha, beta, phi) for the sinusoidal form of the averages.

    Only valid for a real average ratio.  A common complex phase is
    factored out first so phi is fixed by a real two-argument
    arctangent, which resolves the branch so the form already matches
    the averages at t = 0.
    """
    ref = lbar0 if abs(lbar0) >= abs(kbar0) else kbar0
    if abs(ref) == 0.0:
        return 0j, 0j, 0.0
    unit = ref / abs(ref)
    x = (kbar0 / unit).real
    y = (lbar0 / unit).real
    ratio = math.sqrt(r / (n - r))
    phi = math.atan2(x * ratio, y)
    beta_mag = math.hypot(x * ratio, y)
    alpha_mag = beta_mag / ratio
    return unit * alpha_mag, unit * beta_mag, phi


def _build_solution(
    n: int,
    r: int,
    kbar0: complex,
    lbar0: complex,
    sigma_l_sq: float,
    dev: Optional[np.ndarray],
    config: Optional[SearchConfig],
) -> ClosedFormSolution:
    if r < 1 or r > n - 1:
        raise ValidationError(f"marked count must satisfy 1 <= r <= n-1, got r={r}")
    if dev is None:
        # without deviations only the unit-norm identity ties the scalars to
        # a state: r*(sigma_k^2 + |kbar|^2) + (n-r)*(sigma_l^2 + |lbar|^2) = 1
        # squared by a product, which unlike ** gives inf on overflow, so a
        # huge average reads as a negative variance
        implied_sigma_k_sq = (
            1.0
            - (n - r) * (sigma_l_sq + abs(lbar0) * abs(lbar0))
            - r * (abs(kbar0) * abs(kbar0))
        ) / r
        if implied_sigma_k_sq < -1e-10:
            raise ValidationError(
                "summary statistics are inconsistent with a normalized state "
                f"(implied marked variance {implied_sigma_k_sq:.3e} < 0)"
            )
    if not math.isfinite(sigma_l_sq) or sigma_l_sq < 0:
        raise ValidationError(f"unmarked variance must be >= 0, got {sigma_l_sq!r}")
    if not (cmath.isfinite(kbar0) and cmath.isfinite(lbar0)):
        raise ValidationError(f"initial averages must be finite, got {kbar0!r}, {lbar0!r}")
    omega = _rotation_angle(n, r)
    p_max = 1.0 - (n - r) * sigma_l_sq
    if _is_real_ratio(kbar0, lbar0):
        alpha, beta, phi = _phase_parameters(n, r, kbar0, lbar0)
    else:
        alpha = beta = phi = None
    return ClosedFormSolution(
        n=n,
        r=r,
        omega=omega,
        kbar0=complex(kbar0),
        lbar0=complex(lbar0),
        sigma_l_sq=float(sigma_l_sq),
        p_max=p_max,
        alpha=alpha,
        beta=beta,
        phi=phi,
        dev=dev,
        config=config,
    )


def solve(initial: AmplitudeState) -> ClosedFormSolution:
    """Solve the dynamics exactly for the given initial state.

    The state is taken as the time origin.  The result carries the
    deviation vector, so per-state reconstruction is available.
    Assumes a unit-norm state; planning invariants are checked against
    a 1e-10 probability slack downstream.
    """
    kbar, lbar = averages(initial)
    cfg = initial.config
    amps = initial.amplitudes
    dev = amps - lbar
    dev[cfg.marked_idx] = amps[cfg.marked_idx] - kbar
    sigma_l_sq = sum_sq(dev[cfg.unmarked_idx]) / (cfg.n - cfg.r)
    return _build_solution(cfg.n, cfg.r, kbar, lbar, sigma_l_sq, dev, cfg)


def solve_summary(
    n: int,
    r: int,
    kbar0: complex,
    lbar0: complex,
    sigma_l_sq: float,
) -> ClosedFormSolution:
    """Solve in scalar-only mode from the initial averages and unmarked variance.

    These three numbers fix the optimal measurement times and the bound
    p_max.  No statevector is ever allocated, so ``n`` may be as large as
    2**53 (the exact-integer range of a double); a larger ``n`` is
    refused.  The marked variance they imply through the unit-norm
    identity is the consistency check: scalars that could not come from
    a normalized state are rejected.
    """
    if not is_integer(n) or n < 2:
        raise ValidationError(f"database size must be an integer >= 2, got {n!r}")
    # past the exact-integer range of a double, n - r no longer converts to
    # a float exactly, and from 2**1024 not at all
    if n > 2**53:
        raise ValidationError("database size must be at most 2**53 in scalar mode")
    if not is_integer(r):
        raise ValidationError(f"marked count must be an integer, got {r!r}")
    return _build_solution(int(n), int(r), kbar0, lbar0, sigma_l_sq, None, None)


def average_amplitudes(sol: ClosedFormSolution, t: float) -> tuple[complex, complex]:
    """(kbar(t), lbar(t)) evaluated directly from the rotation form.

    Valid for complex initial averages and for real-valued t.
    """
    wt = sol.omega * t
    c = math.cos(wt)
    s = math.sin(wt)
    q = math.sqrt((sol.n - sol.r) / sol.r)
    kbar = sol.kbar0 * c + sol.lbar0 * q * s
    lbar = sol.lbar0 * c - sol.kbar0 / q * s
    return kbar, lbar


def reconstruct(sol: ClosedFormSolution, t: int) -> AmplitudeState:
    """Full statevector at integer time t from averages plus deviations.

    k_i(t) = kbar(t) + dk_i and l_i(t) = lbar(t) + (-1)^t * dl_i, with
    the deviations frozen at time zero: the whole vector is filled from
    the unmarked rule, then the r marked entries are overwritten.
    """
    if sol.scalar_only:
        raise ValidationError(
            "reconstruction needs deviation vectors; this solution was built "
            "from summary statistics only"
        )
    if not is_integer(t) or t < 0:
        raise ValidationError(f"time step must be a non-negative integer, got {t!r}")
    kbar_t, lbar_t = average_amplitudes(sol, t)
    marked = sol.config.marked_idx
    amps = lbar_t + sol.dev if t % 2 == 0 else lbar_t - sol.dev
    amps[marked] = kbar_t + sol.dev[marked]
    return AmplitudeState(sol.config, amps, step=int(t))


def success_probability_analytic(sol: ClosedFormSolution, t: float) -> float:
    """p_max - (n-r)|lbar(t)|^2, the marked-measurement probability at t.

    Works in scalar-only mode and for real-valued t.  The value is
    asserted to lie in [0, 1] up to a 1e-10 slack and only then clipped;
    a violation raises instead of being silently hidden.
    """
    _, lbar_t = average_amplitudes(sol, t)
    p = sol.p_max - (sol.n - sol.r) * abs(lbar_t) ** 2
    if not (-PROBABILITY_SLACK <= p <= 1.0 + PROBABILITY_SLACK):
        raise InvariantError(
            f"success probability {p!r} at t={t} falls outside [0, 1] "
            "beyond tolerance; the solution scalars are inconsistent"
        )
    return min(max(p, 0.0), 1.0)


def _pick_integer_step(sol: ClosedFormSolution, t_real: float) -> tuple[int, float]:
    # evaluate both neighbours, keep the better; ties go to the earlier step
    lo = max(int(math.floor(t_real)), 0)
    hi = int(math.ceil(t_real))
    p_lo = success_probability_analytic(sol, lo)
    p_hi = success_probability_analytic(sol, hi)
    if p_hi > p_lo:
        return hi, p_hi
    return lo, p_lo


def _unmarked_swing(sol: ClosedFormSolution) -> tuple[float, float]:
    """(psi, M - R) for |lbar(t)|^2 = M + R*cos(2*omega*t + psi).

    With b = kbar0/q, lbar(t) = lbar0*cos(wt) - b*sin(wt) expands to
    M = (|lbar0|^2 + |b|^2)/2, R*cos(psi) = (|lbar0|^2 - |b|^2)/2 and
    R*sin(psi) = Re(lbar0*conj(b)).  The minimum M - R is taken as
    Im(lbar0*conj(b))^2/(M + R), which is free of cancellation and zero
    exactly for a real ratio.
    """
    b = sol.kbar0 / math.sqrt((sol.n - sol.r) / sol.r)
    cross = sol.lbar0 * b.conjugate()
    l_sq, b_sq = abs(sol.lbar0) ** 2, abs(b) ** 2
    half_diff = 0.5 * (l_sq - b_sq)
    mean = 0.5 * (l_sq + b_sq)
    swing = math.hypot(half_diff, cross.real)
    minimum = cross.imag**2 / (mean + swing) if mean > 0.0 else 0.0
    return math.atan2(cross.real, half_diff), minimum


def optimal_time(sol: ClosedFormSolution, j: int = 0) -> MeasurementPlan:
    """Closed-form optimal measurement time for branch index j.

    |lbar(t)|^2 is smallest, so the success probability largest, where
    2*omega*t + psi is an odd multiple of pi; the j-th such time
    (counted from the first non-negative one) is returned as t_real,
    together with the better of its two neighbouring integer steps.
    Works for any complex initial averages.  For a real ratio t_real is
    where the unmarked average vanishes and the p_max cap is reached;
    for a complex ratio it reaches :attr:`ClosedFormSolution.p_reachable`.
    """
    if not is_integer(j) or j < 0:
        raise ValidationError(f"branch index must be a non-negative integer, got {j!r}")
    half_period = math.pi / sol.omega
    psi, _ = _unmarked_swing(sol)
    # psi lies in [-pi, pi], so base lies in [0, half_period]
    base = (math.pi - psi) / (2.0 * sol.omega)
    if base >= half_period:
        base -= half_period
    t_real = base + j * half_period
    t_step, p = _pick_integer_step(sol, t_real)
    method = CLOSED_FORM if sol.real_ratio else CLOSED_FORM_COMPLEX
    return MeasurementPlan(
        j=int(j), t_real=t_real, t_step=t_step, predicted_success=p, method=method
    )


def optimal_time_approx(sol: ClosedFormSolution) -> float:
    """Small-r/n expansion of the first optimal time:

        t = -kbar0/(2*lbar0) + (pi/4)*sqrt(n/r) - (pi/24)*sqrt(r/n)

    Documented for r/n << 1; no hard cutoff is applied.  Undefined when
    the unmarked average vanishes (the leading offset divides by it).
    """
    if not sol.real_ratio:
        raise ValidationError("the expansion needs a real kbar(0)/lbar(0) ratio")
    if sol.lbar0 == 0:
        raise ValidationError(
            "expansion undefined: unmarked average is zero (offset term divides by it)"
        )
    ratio = (sol.kbar0 / sol.lbar0).real
    return (
        -0.5 * ratio
        + (math.pi / 4.0) * math.sqrt(sol.n / sol.r)
        - (math.pi / 24.0) * math.sqrt(sol.r / sol.n)
    )
