"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: dense matrices, elementwise
recurrences, and exhaustive scans.  None of it shares code with the
library paths it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from groversim.analytic import ClosedFormSolution
from groversim.core import AmplitudeState, SearchConfig


def dense_diffusion_matrix(n: int) -> np.ndarray:
    """The inversion-about-average operator as an explicit dense matrix:
    2/n everywhere, 2/n - 1 on the diagonal."""
    return np.full((n, n), 2.0 / n) - np.eye(n)


def dense_grover_step(state: AmplitudeState) -> np.ndarray:
    """Marked phase flip followed by a dense diffusion-matrix multiply."""
    amps = state.amplitudes.copy()
    amps[state.config.marked_idx] = -amps[state.config.marked_idx]
    return dense_diffusion_matrix(state.config.n) @ amps


def recurrence_step(state: AmplitudeState) -> np.ndarray:
    """Elementwise one-step recurrence: k -> shift + k, l -> shift - l,
    with the shift computed straight from its definition."""
    amps = state.amplitudes
    cfg = state.config
    marked_sum = amps[cfg.marked_idx].sum()
    unmarked_sum = amps.sum() - marked_sum
    shift = -2.0 / cfg.n * (marked_sum - unmarked_sum)
    out = shift - amps
    out[cfg.marked_idx] = shift + amps[cfg.marked_idx]
    return out


def uniform_angle(n: int, r: int) -> float:
    return 2.0 * math.asin(math.sqrt(r / n))


def uniform_marked_amplitude(n: int, r: int, t: float) -> float:
    """Textbook uniform-start closed form: sin(w(t+1/2))/sqrt(r)."""
    w = uniform_angle(n, r)
    return math.sin(w * (t + 0.5)) / math.sqrt(r)


def uniform_unmarked_amplitude(n: int, r: int, t: float) -> float:
    """Textbook uniform-start closed form: cos(w(t+1/2))/sqrt(n-r)."""
    w = uniform_angle(n, r)
    return math.cos(w * (t + 0.5)) / math.sqrt(n - r)


def iterative_success_series(state: AmplitudeState, t_max: int) -> np.ndarray:
    """P(t) for t = 0..t_max by brute-force iteration of the step rule.

    Self-contained: uses the elementwise recurrence, not the library
    engine."""
    amps = state.amplitudes.copy()
    cfg = state.config
    marked = cfg.marked_idx
    probs = np.empty(t_max + 1)
    for t in range(t_max + 1):
        probs[t] = float(np.sum(np.abs(amps[marked]) ** 2))
        marked_sum = amps[marked].sum()
        shift = 2.0 / cfg.n * (amps.sum() - 2.0 * marked_sum)
        new = shift - amps
        new[marked] = shift + amps[marked]
        amps = new
    return probs


def scan_optimal_step(state: AmplitudeState) -> tuple[int, float]:
    """Argmax of the iterative P(t) over one full oscillation period."""
    cfg = state.config
    period = math.ceil(2.0 * math.pi / uniform_angle(cfg.n, cfg.r))
    probs = iterative_success_series(state, period)
    best = int(np.argmax(probs))
    return best, float(probs[best])


@dataclass(frozen=True)
class ScanPlan:
    """Best integer step found by :func:`optimal_time_numeric`."""

    t_step: int
    predicted_success: float


def optimal_time_numeric(sol: ClosedFormSolution) -> ScanPlan:
    """Exhaustive scan for the best integer step within one full period.

    Evaluates p_max - (n-r)|lbar(t)|^2 at every t in 0..ceil(2*pi/omega)
    from the rotation of the averages, for any complex initial averages;
    ties go to the earliest step.
    """
    t_max = int(math.ceil(2.0 * math.pi / sol.omega))
    q = math.sqrt((sol.n - sol.r) / sol.r)
    wt = sol.omega * np.arange(t_max + 1, dtype=np.float64)
    lbar = sol.lbar0 * np.cos(wt) - (sol.kbar0 / q) * np.sin(wt)
    p = sol.p_max - (sol.n - sol.r) * np.abs(lbar) ** 2
    assert -1e-10 <= p.min() and p.max() <= 1.0 + 1e-10, "p left [0, 1] in the scan"
    best = int(np.argmax(p))
    return ScanPlan(best, min(max(float(p[best]), 0.0), 1.0))


def random_state(
    n: int, r: int, seed: int, complex_amplitudes: bool = True
) -> AmplitudeState:
    """Normalized random state with a random marked set, fully seeded."""
    rng = np.random.default_rng(seed)
    marked = tuple(int(i) for i in rng.choice(n, size=r, replace=False))
    config = SearchConfig(n, marked, allow_large_r=True)
    amps = rng.standard_normal(n)
    if complex_amplitudes:
        amps = amps + 1j * rng.standard_normal(n)
    amps = amps.astype(np.complex128)
    amps /= np.linalg.norm(amps)
    return AmplitudeState(config, amps)
