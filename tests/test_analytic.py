"""Closed-form solution, probability bound, and planning operations."""

import math

import numpy as np
import pytest

from groversim.analytic import (
    CLOSED_FORM,
    CLOSED_FORM_COMPLEX,
    ClosedFormSolution,
    average_amplitudes,
    optimal_time,
    optimal_time_approx,
    reconstruct,
    solve,
    solve_summary,
    success_probability_analytic,
)
from groversim.core import (
    AmplitudeState,
    SearchConfig,
    run,
    success_probability,
)
from groversim.errors import InvariantError, ValidationError

from oracles import (
    iterative_success_series,
    optimal_time_numeric,
    phase_form,
    random_state,
    summary_stats,
    uniform_marked_amplitude,
    uniform_unmarked_amplitude,
    verify_diagonalization,
)


def uniform_state(n, marked=(0,)):
    cfg = SearchConfig(n, tuple(marked))
    return AmplitudeState(cfg, np.full(n, 1.0 / math.sqrt(n), dtype=complex))


def delta_unmarked_state():
    # n=4, one marked state with zero weight, all weight on one unmarked state
    cfg = SearchConfig(4, (0,))
    return AmplitudeState(cfg, np.array([0, 1, 0, 0], dtype=complex))


# -- solve --------------------------------------------------------------------


def test_solve_uniform_n4_scalars():
    sol = solve(uniform_state(4))
    assert sol.omega == pytest.approx(math.pi / 3, abs=1e-15)
    assert sol.phi == pytest.approx(math.pi / 6, abs=1e-14)
    assert sol.alpha == pytest.approx(1.0, abs=1e-14)
    assert sol.beta == pytest.approx(1 / math.sqrt(3), abs=1e-14)
    assert sol.p_max == pytest.approx(1.0, abs=1e-14)
    assert sol.real_ratio and not sol.scalar_only


def test_solve_delta_on_unmarked():
    sol = solve(delta_unmarked_state())
    assert sol.kbar0 == 0
    assert sol.lbar0 == pytest.approx(1 / 3, abs=1e-15)
    assert sol.phi == pytest.approx(0.0, abs=1e-15)
    assert sol.p_max == pytest.approx(1 / 3, abs=1e-14)


@pytest.mark.parametrize("n,r", [(4, 1), (16, 3), (64, 32), (1024, 7)])
def test_solve_uniform_has_zero_spread_and_unit_cap(n, r):
    sol = solve(uniform_state(n, tuple(range(r))))
    assert sol.sigma_l_sq == 0.0
    assert sol.p_max == 1.0


def test_solution_invariants_on_random_states():
    for seed in range(20):
        state = random_state(128, 11, seed)
        sol = solve(state)
        assert math.cos(sol.omega) == pytest.approx(1 - 2 * 11 / 128, abs=1e-12)
        assert abs(np.mean(sol.dev[state.config.marked_idx])) < 1e-12
        assert abs(np.mean(sol.dev[state.config.unmarked_idx])) < 1e-12
        stats = summary_stats(state)
        assert sol.p_max == pytest.approx(1 - (128 - 11) * stats.sigma_l_sq, abs=1e-12)


def test_solve_summary_scalar_mode():
    sol = solve_summary(4, 1, kbar0=0.5, lbar0=0.5, sigma_l_sq=0.0)
    assert sol.scalar_only
    assert sol.p_max == 1.0
    assert sol.phi == pytest.approx(math.pi / 6, abs=1e-14)


def test_solve_summary_rejects_degenerate_r():
    with pytest.raises(ValidationError):
        solve_summary(8, 0, 0.1, 0.1, 0.0)
    with pytest.raises(ValidationError):
        solve_summary(8, 8, 0.1, 0.1, 0.0)


def test_solve_summary_rejects_over_normalized_scalars():
    # magnitudes already exceed unit norm, no variance can fix that
    with pytest.raises(ValidationError):
        solve_summary(16, 2, kbar0=0.9, lbar0=0.3, sigma_l_sq=0.0)
    # the implied marked variance, -15*sigma_l_sq here, may fall to -1e-10
    solve_summary(16, 1, 0.25, 0.25, 0.5e-10 / 15)
    with pytest.raises(ValidationError, match=r"\(implied marked variance -2\.000e-10 < 0\)"):
        solve_summary(16, 1, 0.25, 0.25, 2e-10 / 15)


def test_solve_summary_huge_database_is_cheap():
    n = 2**40
    amp = 1.0 / math.sqrt(n)
    sol = solve_summary(n, 1, amp, amp, 0.0)
    plan = optimal_time(sol, 0)
    assert math.isfinite(plan.t_real)
    assert plan.t_real == pytest.approx(math.pi / 4 * math.sqrt(n), rel=1e-5)


# -- average evolution ---------------------------------------------------------


def test_averages_identity_at_t0():
    state = random_state(64, 5, 1)
    sol = solve(state)
    kbar, lbar = average_amplitudes(sol, 0)
    assert kbar == pytest.approx(sol.kbar0, abs=1e-15)
    assert lbar == pytest.approx(sol.lbar0, abs=1e-15)


def test_averages_n4_first_step():
    sol = solve(uniform_state(4))
    kbar, lbar = average_amplitudes(sol, 1)
    assert kbar == pytest.approx(1.0, abs=1e-14)
    assert lbar == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("n,r", [(4, 1), (64, 2), (1024, 16), (4096, 1)])
def test_averages_match_textbook_uniform_sinusoid(n, r):
    sol = solve(uniform_state(n, tuple(range(r))))
    for t in (0, 1, 2, 7, 100, 555, 1000):
        kbar, lbar = average_amplitudes(sol, t)
        assert abs(kbar - uniform_marked_amplitude(n, r, t)) < 1e-12
        assert abs(lbar - uniform_unmarked_amplitude(n, r, t)) < 1e-12


def test_averages_satisfy_one_step_recurrence():
    # closed form must be a fixed point of the coupled one-step update
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 4096))
        r = int(rng.integers(1, max(2, n // 2 + 1)))
        scale = 1.0 / math.sqrt(n)
        kbar0 = complex(rng.normal(), rng.normal()) * scale
        lbar0 = complex(rng.normal(), rng.normal()) * scale
        sol = ClosedFormSolution(
            n=n, r=r, omega=2 * math.asin(math.sqrt(r / n)),
            kbar0=kbar0, lbar0=lbar0, sigma_l_sq=0.0, p_max=1.0,
            alpha=None, beta=None, phi=None,
        )
        t = int(rng.integers(0, 1000))
        kbar_t, lbar_t = average_amplitudes(sol, t)
        shift = 2.0 / n * ((n - r) * lbar_t - r * kbar_t)
        kbar_next, lbar_next = average_amplitudes(sol, t + 1)
        assert abs(kbar_next - (shift + kbar_t)) < 1e-12
        assert abs(lbar_next - (shift - lbar_t)) < 1e-12


# -- phase form ----------------------------------------------------------------


def test_phase_form_equals_direct_evaluation():
    for seed in range(10):
        state = random_state(64, 5, seed, complex_amplitudes=False)
        sol = solve(state)
        for t in (0, 1, 13, 200):
            direct = average_amplitudes(sol, t)
            sinusoid = phase_form(sol, t)
            assert abs(direct[0] - sinusoid[0]) < 1e-12
            assert abs(direct[1] - sinusoid[1]) < 1e-12


def test_phase_form_uniform_t0():
    sol = solve(uniform_state(4))
    kbar, _ = phase_form(sol, 0)
    assert kbar == pytest.approx(0.5, abs=1e-14)


def test_phase_form_quarter_turn_pins_extrema():
    sol = solve(uniform_state(16, (0, 3)))
    t = (math.pi / 2 - sol.phi) / sol.omega
    kbar, lbar = phase_form(sol, t)
    assert abs(lbar) < 1e-12
    assert abs(abs(kbar) - abs(sol.alpha)) < 1e-12


def test_phase_form_with_zero_unmarked_average():
    # all weight on the marked states: phi collapses to pi/2 and the
    # marked average follows a pure cosine
    cfg = SearchConfig(4, (0,))
    state = AmplitudeState(cfg, np.array([1, 0, 0, 0], dtype=complex))
    sol = solve(state)
    assert sol.phi == pytest.approx(math.pi / 2, abs=1e-15)
    for t in (0, 1, 5):
        kbar, _ = phase_form(sol, t)
        assert kbar == pytest.approx(sol.kbar0 * math.cos(sol.omega * t), abs=1e-14)


def test_phase_form_rejects_complex_ratio():
    # the ratio is real while |Im(kbar0*conj(lbar0))| <= 1e-9*|kbar0|*|lbar0|:
    # 0.05 + 2.5e-11j sits at 0.5e-9 of that scale, 0.05 + 1e-10j at 2e-9
    assert solve_summary(64, 2, 0.05 + 2.5e-11j, 0.1, 0.001).real_ratio
    for kbar0 in (0.05j, 0.05 + 1e-10j):
        sol = solve_summary(64, 2, kbar0, 0.1, 0.001)
        assert not sol.real_ratio
        with pytest.raises(ValidationError, match="phase form needs a real"):
            phase_form(sol, 3)


def test_phase_form_for_common_complex_phase():
    # both averages share one complex phase: the ratio is real, so the
    # sinusoidal form applies with complex alpha/beta of that same phase
    phase = np.exp(0.7j)
    cfg = SearchConfig(8, (0, 1))
    amps = np.full(8, phase / math.sqrt(8), dtype=complex)
    sol = solve(AmplitudeState(cfg, amps))
    assert sol.real_ratio
    for t in (0, 3, 11):
        direct = average_amplitudes(sol, t)
        sinusoid = phase_form(sol, t)
        assert abs(direct[0] - sinusoid[0]) < 1e-12
        assert abs(direct[1] - sinusoid[1]) < 1e-12


# -- reconstruction -------------------------------------------------------------


def test_reconstruct_t0_is_initial_state():
    state = random_state(32, 3, 4)
    rebuilt = reconstruct(solve(state), 0)
    np.testing.assert_allclose(rebuilt.amplitudes, state.amplitudes, atol=1e-15)
    assert rebuilt.step == 0


def test_reconstruct_uniform_has_no_deviations():
    sol = solve(uniform_state(16, (2, 9)))
    assert np.max(np.abs(sol.dev[[2, 9]])) == 0.0
    state_t = reconstruct(sol, 5)
    kbar_t, _ = average_amplitudes(sol, 5)
    np.testing.assert_allclose(
        state_t.amplitudes[[2, 9]], [kbar_t, kbar_t], atol=1e-15
    )


def test_reconstruct_matches_iterative_engine():
    state = random_state(256, 5, 123)
    sol = solve(state)
    evolved = run(state, 137)
    rebuilt = reconstruct(sol, 137)
    np.testing.assert_allclose(rebuilt.amplitudes, evolved.amplitudes, atol=1e-10)


def test_reconstruct_unavailable_in_scalar_mode():
    sol = solve_summary(16, 2, 0.25, 0.25, 0.0)
    with pytest.raises(ValidationError, match="reconstruction needs deviation vectors"):
        reconstruct(sol, 3)
    # refused before n amplitudes are allocated
    huge = solve_summary(2**53, 1, 0.0, 2**-26.5, 0.0)
    with pytest.raises(ValidationError, match="reconstruction needs deviation vectors"):
        reconstruct(huge, 3)


def test_reconstruct_returns_a_fresh_array_each_call():
    sol = solve(random_state(64, 3, 8))
    first, second = reconstruct(sol, 7), reconstruct(sol, 7)
    assert not np.shares_memory(first.amplitudes, second.amplitudes)
    assert not np.shares_memory(first.amplitudes, sol.dev)
    expected = second.amplitudes.tobytes()
    first.amplitudes[:] = 0.0
    assert reconstruct(sol, 7).amplitudes.tobytes() == expected


def test_reconstruct_rejects_fractional_time():
    sol = solve(uniform_state(8, (0,)))
    with pytest.raises(ValidationError):
        reconstruct(sol, 1.5)


# -- success probability --------------------------------------------------------


def test_probability_uniform_n4_peaks_at_one():
    sol = solve(uniform_state(4))
    assert success_probability_analytic(sol, 1) == pytest.approx(1.0, abs=1e-14)


def test_probability_respects_cap_everywhere():
    for seed in range(10):
        state = random_state(64, 4, seed)
        sol = solve(state)
        for t in range(0, 120):
            assert success_probability_analytic(sol, t) <= sol.p_max + 1e-12


def test_probability_matches_iterative_engine_along_trajectory():
    state = random_state(128, 6, 77)
    sol = solve(state)
    series = iterative_success_series(state, 300)
    for t in (0, 1, 17, 150, 300):
        assert success_probability_analytic(sol, t) == pytest.approx(
            series[t], abs=1e-10
        )


def test_probability_cap_reached_for_delta_case():
    sol = solve(delta_unmarked_state())
    plan = optimal_time(sol, 0)
    # the crossing sits exactly between two steps, so the cap 1/3 is
    # attained at the real-valued time while both neighbours give 1/4
    assert plan.t_real == pytest.approx(1.5, abs=1e-12)
    assert success_probability_analytic(sol, plan.t_real) == pytest.approx(
        1 / 3, abs=1e-12
    )
    assert plan.t_step == 1
    assert plan.predicted_success == pytest.approx(0.25, abs=1e-12)
    # with both averages 0, p = 1 at every step: the neighbours tie exactly
    # and the earlier one is planned
    flat = solve_summary(16, 1, 0j, 0j, 0.0)
    assert [optimal_time(flat, j).t_step for j in (0, 1)] == [3, 9]


def test_probability_invariant_check_fires_for_inconsistent_scalars():
    # bypass solve_summary validation to plant inconsistent scalars
    sol = ClosedFormSolution(
        n=16, r=2, omega=2 * math.asin(math.sqrt(2 / 16)),
        kbar0=0.9, lbar0=0.9, sigma_l_sq=0.0, p_max=1.0,
        alpha=None, beta=None, phi=None,
    )
    with pytest.raises(InvariantError):
        # the swing of these averages pushes the formula far below zero
        min(success_probability_analytic(sol, t) for t in range(10))


# -- planning -------------------------------------------------------------------


def test_optimal_time_n4_uniform():
    plan = optimal_time(solve(uniform_state(4)), 0)
    assert plan.t_real == pytest.approx(1.0, abs=1e-12)
    assert plan.t_step == 1
    assert plan.predicted_success == pytest.approx(1.0, abs=1e-12)
    assert plan.method == CLOSED_FORM


def test_optimal_time_n1024_uniform():
    sol = solve(uniform_state(1024))
    plan = optimal_time(sol, 0)
    assert plan.t_real == pytest.approx(24.63, abs=0.01)
    assert plan.t_step == 25
    assert plan.predicted_success >= 0.999
    # the earliest window's best integer equals the iterative scan argmax
    # over one period of the probability
    half_period = math.ceil(math.pi / sol.omega)
    series = iterative_success_series(uniform_state(1024), half_period)
    assert plan.t_step == int(np.argmax(series))


def test_optimal_time_branches_are_half_period_apart():
    sol = solve(uniform_state(64, (0, 5)))
    plans = [optimal_time(sol, j) for j in range(4)]
    for a, b in zip(plans, plans[1:]):
        assert b.t_real - a.t_real == pytest.approx(math.pi / sol.omega, rel=1e-12)
        assert b.j == a.j + 1


def test_optimal_time_plans_complex_ratio_and_rejects_bad_j():
    sol = solve_summary(64, 2, 0.05j, 0.1, 0.001)
    plans = [optimal_time(sol, j) for j in range(3)]
    for a, b in zip(plans, plans[1:]):
        assert b.t_real - a.t_real == pytest.approx(math.pi / sol.omega, rel=1e-12)
    for plan in plans:
        assert plan.method == CLOSED_FORM_COMPLEX
        # t_real is a minimum of |lbar|^2: the reachable cap, below p_max
        assert success_probability_analytic(sol, plan.t_real) == pytest.approx(
            sol.p_reachable, abs=1e-14
        )
        for dt in (-0.3, 0.3):
            assert success_probability_analytic(sol, plan.t_real + dt) < sol.p_reachable
    assert sol.p_reachable < sol.p_max - 1e-4
    with pytest.raises(ValidationError):
        optimal_time(sol, -1)
    with pytest.raises(ValidationError):
        optimal_time(solve(uniform_state(4)), -1)
    # j converts to a double exactly up to 2**53
    assert optimal_time(sol, 2**53).j == 2**53
    with pytest.raises(ValidationError, match=r"at most 2\*\*53"):
        optimal_time(sol, 2**53 + 1)


def test_optimal_time_zero_unmarked_average_gives_multiples_of_half_period():
    cfg = SearchConfig(4, (0,))
    state = AmplitudeState(cfg, np.array([1, 0, 0, 0], dtype=complex))
    # lbar0 = -0-0j puts psi at -pi and the first minimum a whole half period
    # out, exactly; it is moved back to t = 0
    for sol in (solve(state), solve_summary(4, 1, 1.0, complex(-0.0, -0.0), 0.0)):
        for j in range(3):
            plan = optimal_time(sol, j)
            assert plan.t_real == pytest.approx(j * math.pi / sol.omega, abs=1e-12)


def test_numeric_scan_agrees_with_closed_form_branches():
    for seed in range(15):
        state = random_state(128, 3, seed, complex_amplitudes=False)
        sol = solve(state)
        scan = optimal_time_numeric(sol)
        branch_steps = [optimal_time(sol, j).t_step for j in range(4)]
        assert scan.t_step in branch_steps
        assert scan.predicted_success >= optimal_time(sol, 0).predicted_success - 1e-12


def test_numeric_scan_uniform_n4():
    plan = optimal_time_numeric(solve(uniform_state(4)))
    assert plan.t_step == 1
    assert plan.predicted_success == pytest.approx(1.0, abs=1e-14)


def test_numeric_scan_complex_ratio_stays_below_cap():
    # purely imaginary marked average against a real unmarked average:
    # the unmarked average never vanishes, so the cap is unreachable
    sol = solve_summary(64, 2, 0.05j, 0.1, 0.001)
    plan = optimal_time_numeric(sol)
    assert plan.predicted_success <= sol.p_reachable + 1e-12
    assert plan.predicted_success < sol.p_max - 1e-4


def test_optimal_time_real_ratio_sits_on_phase_crossing():
    # for a real ratio the minimum of |lbar|^2 is the zero crossing of
    # the phase form, beta*cos(omega*t + phi) = 0
    for seed in range(20):
        n = (64, 256, 1024, 4096)[seed % 4]
        sol = solve(random_state(n, 1 + seed % 5, 300 + seed, complex_amplitudes=False))
        half_period = math.pi / sol.omega
        base = (0.5 * math.pi - sol.phi) / sol.omega
        if base < 0.0:
            base += half_period
        for j in range(3):
            plan = optimal_time(sol, j)
            assert plan.method == CLOSED_FORM
            assert plan.t_real == pytest.approx(base + j * half_period, rel=1e-12)


def _best_planned_success(sol):
    """Best p over the ends of one period and every window plan inside it."""
    t_max = math.ceil(2.0 * math.pi / sol.omega)
    best = max(success_probability_analytic(sol, 0), success_probability_analytic(sol, t_max))
    j = 0
    while (plan := optimal_time(sol, j)).t_step <= t_max:
        best = max(best, plan.predicted_success)
        j += 1
    return best


def _cross_check_states():
    # the grids of acceptance criterion 5 and of the scan test above
    sizes = [64, 128, 256, 512]
    for seed in range(50):
        n, r = sizes[seed % 4], 1 + seed % 4
        yield random_state(n, r, 4000 + seed, complex_amplitudes=False)
        yield random_state(n, r, 9000 + seed, complex_amplitudes=True)
    for seed in range(15):
        yield random_state(128, 3, seed, complex_amplitudes=False)
    # 500 more: n log-uniform on [6, 4096], r <= n/2 in 300, r > n/2 in 200
    rng = np.random.default_rng(2742)
    for i in range(500):
        n = int(round(math.exp(rng.uniform(math.log(6), math.log(4096)))))
        if i % 5 < 3:
            r = int(rng.integers(1, n // 2 + 1))
        else:
            r = int(rng.integers(n // 2 + 1, n))
        yield random_state(n, r, 20000 + i, complex_amplitudes=i % 2 == 0)


def test_window_plans_find_the_scan_optimum():
    # the best integer step in a period lies next to a minimum of
    # |lbar|^2 or at an end of the period; at small n or r > n/2 several
    # minima fall inside one period
    states = 0
    for state in _cross_check_states():
        sol = solve(state)
        scan = optimal_time_numeric(sol)
        assert _best_planned_success(sol) == pytest.approx(
            scan.predicted_success, abs=1e-13
        ), (state.config.n, state.config.r)
        states += 1
    assert states == 615


def test_plan_tightness_at_real_time_and_integer_sampling_loss():
    for seed in range(10):
        state = random_state(256, 4, seed, complex_amplitudes=False)
        sol = solve(state)
        plan = optimal_time(sol, 0)
        # at the real-valued crossing the cap is hit exactly
        assert success_probability_analytic(sol, plan.t_real) == pytest.approx(
            sol.p_max, abs=1e-12
        )
        _, lbar = average_amplitudes(sol, plan.t_real)
        assert abs(lbar) < 1e-12
        # at the chosen integer the shortfall is one-step sampling error
        loss = sol.p_max - plan.predicted_success
        cap = (sol.n - sol.r) * abs(sol.beta) ** 2 * sol.omega**2
        assert 0 <= loss <= cap


# -- small-ratio expansion -------------------------------------------------------


def test_expansion_value_for_large_uniform_database():
    n = 10**6
    amp = 1.0 / math.sqrt(n)
    sol = solve_summary(n, 1, amp, amp, 0.0)
    approx = optimal_time_approx(sol)
    assert approx == pytest.approx(
        -0.5 + math.pi / 4 * 1000 - math.pi / 24 * 0.001, abs=1e-12
    )
    exact = optimal_time(sol, 0).t_real
    assert abs(exact - approx) < 1e-4


def test_expansion_error_shrinks_with_database_size():
    diffs = []
    for exp in (10, 14, 18):
        n = 2**exp
        amp = 1.0 / math.sqrt(n)
        sol = solve_summary(n, 1, amp, amp, 0.0)
        diffs.append(abs(optimal_time(sol, 0).t_real - optimal_time_approx(sol)))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[0] <= 1.0


def test_expansion_offset_tracks_average_ratio():
    base = solve_summary(4096, 1, 0.01, 0.015, 1e-7)
    boosted = solve_summary(4096, 1, 0.03, 0.015, 1e-7)
    delta_ratio = (0.03 - 0.01) / 0.015
    assert optimal_time_approx(base) - optimal_time_approx(boosted) == pytest.approx(
        0.5 * delta_ratio, abs=1e-12
    )
    assert optimal_time(boosted, 0).t_real < optimal_time(base, 0).t_real


def test_expansion_rejects_complex_ratio():
    sol = solve_summary(64, 2, 0.05j, 0.1, 0.001)
    with pytest.raises(ValidationError, match="expansion needs a real"):
        optimal_time_approx(sol)


def test_expansion_signals_zero_unmarked_average():
    cfg = SearchConfig(4, (0,))
    state = AmplitudeState(cfg, np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ValidationError):
        optimal_time_approx(solve(state))


# -- diagonalization audit --------------------------------------------------------


def test_diagonalization_n4():
    report = verify_diagonalization(SearchConfig(4, (0,)))
    assert report.a == pytest.approx(0.5)
    assert report.b == pytest.approx(1.5)
    assert report.c == pytest.approx(0.5)
    assert report.gamma == pytest.approx(1.0, abs=1e-15)
    assert report.omega == pytest.approx(math.pi / 3, abs=1e-15)
    assert report.ok


def test_diagonalization_n2():
    report = verify_diagonalization(SearchConfig(2, (0,)))
    assert report.a == 0.0
    assert report.omega == pytest.approx(math.pi / 2, abs=1e-15)
    assert report.ok


def test_diagonalization_random_geometries():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 2048))
        r = int(rng.integers(1, n // 2 + 1))
        report = verify_diagonalization(SearchConfig(n, tuple(range(r))))
        assert report.ok, report.violations
        assert report.gamma_error <= 1e-12
        assert report.evolution_error <= 1e-10


# -- engine equivalence (compact version; the full grid runs in acceptance) -------


def test_engines_agree_on_random_complex_states():
    for seed in range(5):
        state = random_state(64, 2, seed)
        sol = solve(state)
        current = state
        for t in range(1, 80):
            current = run(current, 1)
            rebuilt = reconstruct(sol, t)
            np.testing.assert_allclose(
                rebuilt.amplitudes, current.amplitudes, atol=1e-10
            )
            assert success_probability_analytic(sol, t) == pytest.approx(
                success_probability(current), abs=1e-10
            )


def test_engines_agree_beyond_half_marked():
    # r > n/2 sits outside the CLI's default gate but the formulas stay valid;
    # both engines must keep agreeing there
    for n, r, seed in [(16, 11, 0), (64, 50, 1)]:
        state = random_state(n, r, seed)
        assert state.config.r == r > n // 2
        sol = solve(state)
        assert math.cos(sol.omega) == pytest.approx(1 - 2 * r / n, abs=1e-12)
        current = state
        for t in range(1, 40):
            current = run(current, 1)
            np.testing.assert_allclose(
                reconstruct(sol, t).amplitudes, current.amplitudes, atol=1e-10
            )
