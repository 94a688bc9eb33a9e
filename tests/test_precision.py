"""Scalar-only planning at database sizes up to 2**53 against mpmath.

The oracle evaluates the rotation of the averages at 50 significant
digits from the same double inputs, so any difference is rounding in
the double-precision library path.
"""

import cmath
import math

import pytest
from mpmath import mp, mpc, mpf

from groversim.analytic import optimal_time, optimal_time_approx, solve_summary
from groversim.core import SummaryStats


def _scalars(n, r, ratio):
    """Averages and unmarked variance of a unit-norm state: 0.3 of the
    weight on the marked mean, 0.4 on the unmarked mean, 0.2 on the
    unmarked spread and 0.1 on the marked spread."""
    k, l = math.sqrt(0.3 / r), math.sqrt(0.4 / (n - r))
    if ratio == "real":
        return complex(k), complex(-l), 0.2 / (n - r)
    return k * cmath.exp(0.7j), l * cmath.exp(-1.9j), 0.2 / (n - r)


def _oracle(n, r, kbar0, lbar0, sigma_l_sq, j):
    """(omega, t_real of window j, p_max - (n-r)|lbar(t_real)|^2) in mpmath."""
    n, r = mpf(n), mpf(r)
    omega = 2 * mp.asin(mp.sqrt(r / n))
    l0 = mpc(lbar0.real, lbar0.imag)
    b = mpc(kbar0.real, kbar0.imag) / mp.sqrt((n - r) / r)
    # |lbar(t)|^2 = M + R*cos(2*omega*t + psi) is smallest at 2*omega*t + psi = pi
    psi = mp.atan2(mp.re(l0 * mp.conj(b)), (abs(l0) ** 2 - abs(b) ** 2) / 2)
    half_period = mp.pi / omega
    t = mp.fmod((mp.pi - psi) / (2 * omega), half_period) + j * half_period
    lbar = l0 * mp.cos(omega * t) - b * mp.sin(omega * t)
    # t is a stationary point of |lbar|^2 and lies below its mean
    dlbar = -omega * (l0 * mp.sin(omega * t) + b * mp.cos(omega * t))
    scale = abs(l0) ** 2 + abs(b) ** 2
    assert abs(2 * mp.re(mp.conj(lbar) * dlbar)) <= mpf(10) ** -40 * omega * scale
    assert abs(lbar) ** 2 <= scale / 2
    cap = 1 - (n - r) * mpf(sigma_l_sq) - (n - r) * abs(lbar) ** 2
    return omega, t, cap


def _rel(x, ref):
    return float(abs((mpf(x) - ref) / ref))


@pytest.mark.parametrize("ratio", ["real", "complex"])
@pytest.mark.parametrize("r", [1, 7])
@pytest.mark.parametrize("n", [2**30, 2**45, 2**53])
def test_scalar_planning_matches_mpmath(n, r, ratio):
    kbar0, lbar0, sigma_l_sq = _scalars(n, r, ratio)
    sol = solve_summary(n, r, SummaryStats(kbar0, lbar0, 0.0, sigma_l_sq))
    assert sol.real_ratio == (ratio == "real")
    with mp.workdps(50):
        for j in (0, 1):
            omega, t_real, cap = _oracle(n, r, kbar0, lbar0, sigma_l_sq, j)
            assert _rel(sol.omega, omega) <= 1e-12
            assert _rel(optimal_time(sol, j).t_real, t_real) <= 1e-12
            assert float(abs(mpf(sol.p_reachable) - cap)) <= 1e-12
    if ratio == "real":
        assert sol.p_reachable == sol.p_max
    else:
        assert sol.p_reachable < sol.p_max - 0.01


@pytest.mark.parametrize("c", [1.0, -3.0, 10.0])
@pytest.mark.parametrize("r", [1, 7])
@pytest.mark.parametrize("n", [2**20, 2**30, 2**45, 2**53])
def test_small_ratio_expansion_matches_mpmath(n, r, c):
    """t = -c/2 + (pi/4)sqrt(n/r) - (pi/24)sqrt(r/n), c = kbar0/lbar0 real,
    against the first optimal time; the neglected terms are O(|c|^3 r/n)."""
    lbar0 = math.sqrt(0.5 / (n - r))
    kbar0 = c * lbar0
    sigma_l_sq = (0.5 - r * kbar0**2) / (n - r)
    sol = solve_summary(n, r, SummaryStats(complex(kbar0), complex(lbar0), 0.0, sigma_l_sq))
    with mp.workdps(50):
        _, t_real, _ = _oracle(n, r, complex(kbar0), complex(lbar0), sigma_l_sq, 0)
    error = float(abs(mpf(optimal_time_approx(sol)) - t_real))
    assert error <= (1 + abs(c) ** 3) * r / n + 1e-15 * float(t_real)
