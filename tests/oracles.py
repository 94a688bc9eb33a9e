"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: dense matrices, elementwise
recurrences, half-step operators, exhaustive scans and an eigen-audit of
the averages' update matrix.  None of it shares code with the library
paths it checks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from groversim.analytic import ClosedFormSolution, average_amplitudes, solve_summary
from groversim.core import AmplitudeState, SearchConfig, SummaryStats
from groversim.errors import ValidationError


def step_shift(state: AmplitudeState) -> complex:
    """Uniform shift added to every amplitude by one search step.

    This is the signed weighted average (2/n)[(n-r)*lbar - r*kbar]: after
    the marked phase flip, one inversion about the mean sends k to
    shift + k and l to shift - l.
    """
    amps = state.amplitudes
    cfg = state.config
    marked_sum = amps[cfg.marked_idx].sum()
    return complex(2.0 / cfg.n * (amps.sum() - 2.0 * marked_sum))


def post_flip_mean(state: AmplitudeState) -> complex:
    """Mean of all amplitudes right after the marked phase flip.

    Equals half the step shift; the inversion reflects about this value.
    """
    return step_shift(state) / 2.0


def phase_flip_marked(state: AmplitudeState) -> AmplitudeState:
    """Negate the marked amplitudes (pi phase rotation); half a step."""
    amps = state.amplitudes.copy()
    amps[state.config.marked_idx] = -amps[state.config.marked_idx]
    return AmplitudeState(state.config, amps, state.step)


def inversion_about_average(state: AmplitudeState) -> AmplitudeState:
    """Reflect every amplitude about the mean of all amplitudes.

    a_i -> 2*mean - a_i, the diffusion operator, via the mean in O(n);
    :func:`dense_diffusion_matrix` is the same operator as a matrix.
    """
    amps = state.amplitudes
    mean = amps.mean()
    return AmplitudeState(state.config, 2.0 * mean - amps, state.step)


def grover_step(state: AmplitudeState) -> AmplitudeState:
    """One full search step: marked phase flip, then inversion about average."""
    flipped = phase_flip_marked(state)
    inverted = inversion_about_average(flipped)
    return AmplitudeState(state.config, inverted.amplitudes, state.step + 1)


def weighted_norm(stats: SummaryStats, n: int, r: int) -> float:
    """r(sigma_k^2 + |kbar|^2) + (n-r)(sigma_l^2 + |lbar|^2).

    Equals the squared norm of any state with these statistics, so it
    must be 1 for a normalized state.
    """
    return r * (stats.sigma_k_sq + abs(stats.kbar) ** 2) + (n - r) * (
        stats.sigma_l_sq + abs(stats.lbar) ** 2
    )


def phase_form(sol: ClosedFormSolution, t: float) -> tuple[complex, complex]:
    """(alpha*sin(wt+phi), beta*cos(wt+phi)); equals ``average_amplitudes``.

    Raises :class:`ValidationError` when the average ratio is complex,
    since no single real phase describes both averages then.
    """
    if not sol.real_ratio:
        raise ValidationError(
            "phase form needs a real kbar(0)/lbar(0) ratio; "
            "evaluate average_amplitudes instead"
        )
    arg = sol.omega * t + sol.phi
    return sol.alpha * math.sin(arg), sol.beta * math.cos(arg)


def period(sol: ClosedFormSolution) -> float:
    """Steps per full oscillation of the averages, 2*pi/omega."""
    return 2.0 * math.pi / sol.omega


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


# default (kbar0, lbar0) probe for the evolution check; any generic
# complex pair exercises the full recurrence
_DEFAULT_PROBE = (0.62 + 0.17j, 0.33 - 0.45j)


@dataclass(frozen=True)
class DiagonalizationReport:
    """Numerical audit of the averages' one-step update matrix.

    The update is v(t+1) = A v(t) with A = [[a, b], [-c, a]], where
    a = (n-2r)/n, b = 2(n-r)/n, c = 2r/n.  Its eigenvalues are
    exp(+-i*omega): unit modulus (a^2 + bc = 1) with phase omega.
    """

    n: int
    r: int
    a: float
    b: float
    c: float
    gamma: float
    omega: float
    gamma_error: float
    modulus_error: float
    phase_error: float
    basis_error: float
    evolution_error: float
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_diagonalization(
    config: SearchConfig,
    t_max: int = 100,
    probe: tuple[complex, complex] = _DEFAULT_PROBE,
) -> DiagonalizationReport:
    """Check the diagonalization of the averages' update matrix.

    Verifies that (i) gamma = a^2 + bc is 1 within 1e-12, (ii) the
    numerical eigenvalues have unit modulus and phase omega within
    1e-12 and the eigenvector basis reassembles A, and (iii) repeated
    multiplication by A reproduces the library's closed-form averages
    within 1e-10 for all t <= t_max, starting from the probe averages.
    """
    n, r = config.n, config.r
    a = (n - 2 * r) / n
    b = 2 * (n - r) / n
    c = 2 * r / n
    gamma = a * a + b * c
    omega = uniform_angle(n, r)
    matrix = np.array([[a, b], [-c, a]])

    eigenvalues = np.linalg.eigvals(matrix)
    modulus_error = float(np.max(np.abs(np.abs(eigenvalues) - 1.0)))
    phase_error = float(np.max(np.abs(np.sort(np.angle(eigenvalues)) - [-omega, omega])))

    # reassemble A from its eigenvector basis and the unit-circle spectrum
    q = math.sqrt(n / r - 1.0)
    basis = np.array([[1j * q, -1j * q], [1.0, 1.0]])
    basis_inv = np.array([[-0.5j / q, 0.5], [0.5j / q, 0.5]])
    spectrum = np.diag([np.exp(-1j * omega), np.exp(1j * omega)])
    basis_error = float(np.max(np.abs(basis @ spectrum @ basis_inv - matrix)))

    # the library's closed form (its own omega) started from the probe,
    # which need not be the averages of a normalized state
    sol = solve_summary(n, r, 0j, 0j, 0.0)
    sol = dataclasses.replace(sol, kbar0=complex(probe[0]), lbar0=complex(probe[1]))
    v = np.array(probe, dtype=np.complex128)
    evolution_error = 0.0
    for t in range(1, t_max + 1):
        v = matrix @ v
        kbar_t, lbar_t = average_amplitudes(sol, t)
        err = max(abs(v[0] - kbar_t), abs(v[1] - lbar_t))
        evolution_error = max(evolution_error, float(err))

    violations = []
    if abs(gamma - 1.0) > 1e-12:
        violations.append("gamma")
    if modulus_error > 1e-12:
        violations.append("eigenvalue-modulus")
    if phase_error > 1e-12:
        violations.append("eigenvalue-phase")
    if basis_error > 1e-12:
        violations.append("eigenvector-basis")
    if evolution_error > 1e-10:
        violations.append("evolution")

    return DiagonalizationReport(
        n=n,
        r=r,
        a=a,
        b=b,
        c=c,
        gamma=gamma,
        omega=omega,
        gamma_error=abs(gamma - 1.0),
        modulus_error=modulus_error,
        phase_error=phase_error,
        basis_error=basis_error,
        evolution_error=evolution_error,
        violations=tuple(violations),
    )
