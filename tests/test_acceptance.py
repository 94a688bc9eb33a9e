"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time

import numpy as np

from groversim.analytic import (
    average_amplitudes,
    optimal_time,
    optimal_time_approx,
    reconstruct,
    solve,
    solve_summary,
    success_probability_analytic,
)
from groversim.cli import main
from groversim.core import (
    AmplitudeState,
    SearchConfig,
    run,
    success_probability,
)
from groversim.distributions import DistributionSpec, generate

from oracles import (
    dense_grover_step,
    iterative_success_series,
    optimal_time_numeric,
    period,
    random_state,
    summary_stats,
    uniform_marked_amplitude,
    uniform_unmarked_amplitude,
    verify_diagonalization,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, f"criterion {num} ({name}): {detail}"


def _grid(sizes, ratios):
    combos = []
    for n in sizes:
        for r in ratios(n):
            if 1 <= r <= n // 2 and (n, r) not in combos:
                combos.append((n, r))
    return combos


def uniform_state(n, r):
    cfg = SearchConfig(n, tuple(range(r)))
    return AmplitudeState(cfg, np.full(n, 1.0 / math.sqrt(n), dtype=complex))


def test_criterion_1_exact_solution_equivalence():
    started = time.perf_counter()
    combos = _grid(
        [8, 64, 1024, 4096], lambda n: [1, 2, n // 8, n // 2]
    )
    seeds_per_combo = 7
    states = 0
    worst = 0.0
    for n, r in combos:
        for seed in range(seeds_per_combo):
            state = random_state(n, r, seed * 1009 + n + r)
            states += 1
            sol = solve(state)
            horizon = math.ceil(3 * period(sol))
            current = state
            for t in range(1, horizon + 1):
                current = run(current, 1)
                rebuilt = reconstruct(sol, t)
                dev = float(np.max(np.abs(rebuilt.amplitudes - current.amplitudes)))
                worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and states >= 100 and elapsed < 120.0
    _report(
        1,
        "exact-solution equivalence",
        ok,
        f"{states} states, max dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_uniform_case_regression():
    combos = _grid([4, 64, 256, 1024, 4096], lambda n: [1, 2, n // 8, n // 2])
    worst = 0.0
    for n, r in combos:
        sol = solve(uniform_state(n, r))
        for t in range(0, 1001):
            kbar, lbar = average_amplitudes(sol, t)
            worst = max(worst, abs(kbar - uniform_marked_amplitude(n, r, t)))
            worst = max(worst, abs(lbar - uniform_unmarked_amplitude(n, r, t)))
    _report(2, "uniform-case regression", worst <= 1e-12, f"max dev {worst:.2e}")


def test_criterion_3_dense_matrix_step_oracle():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 65))
        r = int(rng.integers(1, n // 2 + 1))
        state = random_state(n, r, int(rng.integers(0, 2**32)))
        stepped = run(state, 1)
        dev = float(np.max(np.abs(stepped.amplitudes - dense_grover_step(state))))
        worst = max(worst, dev)
    _report(3, "dense-matrix step oracle", worst <= 1e-12, f"max dev {worst:.2e}")


def test_criterion_4_constants_of_motion():
    worst_dev = 0.0
    worst_var = 0.0
    for n, r, seed in [(64, 5, 0), (128, 3, 1), (256, 16, 2)]:
        state = random_state(n, r, seed)
        cfg = state.config
        stats0 = summary_stats(state)
        dk0 = state.amplitudes[cfg.marked_idx] - stats0.kbar
        dl0 = state.amplitudes[cfg.unmarked_idx] - stats0.lbar
        current = state
        for t in range(1, 1001):
            current = run(current, 1)
            stats = summary_stats(current)
            dk = current.amplitudes[cfg.marked_idx] - stats.kbar
            dl = current.amplitudes[cfg.unmarked_idx] - stats.lbar
            parity = 1.0 if t % 2 == 0 else -1.0
            worst_dev = max(worst_dev, float(np.max(np.abs(dk - dk0))))
            worst_dev = max(worst_dev, float(np.max(np.abs(parity * dl - dl0))))
            worst_var = max(worst_var, abs(stats.sigma_k_sq - stats0.sigma_k_sq))
            worst_var = max(worst_var, abs(stats.sigma_l_sq - stats0.sigma_l_sq))
    ok = worst_dev <= 1e-10 and worst_var <= 1e-10
    _report(
        4,
        "constants of motion",
        ok,
        f"max deviation drift {worst_dev:.2e}, max variance drift {worst_var:.2e}",
    )


def test_criterion_5_bound_and_tightness():
    sizes = [64, 128, 256, 512]
    bound_excess = 0.0
    tightness_gap = 0.0
    for seed in range(50):
        n = sizes[seed % len(sizes)]
        r = 1 + seed % 4
        state = random_state(n, r, 4000 + seed, complex_amplitudes=False)
        sol = solve(state)
        horizon = math.ceil(period(sol))
        for t in range(horizon + 1):
            p = success_probability_analytic(sol, t)
            bound_excess = max(bound_excess, p - sol.p_max)
        plan = optimal_time(sol, 0)
        p_at_crossing = success_probability_analytic(sol, plan.t_real)
        tightness_gap = max(tightness_gap, abs(p_at_crossing - sol.p_max))

    scan_excess = 0.0
    reach_gap = 0.0
    for seed in range(50):
        n = sizes[seed % len(sizes)]
        r = 1 + seed % 4
        state = random_state(n, r, 9000 + seed, complex_amplitudes=True)
        sol = solve(state)
        horizon = math.ceil(period(sol))
        for t in range(horizon + 1):
            p = success_probability_analytic(sol, t)
            scan_excess = max(scan_excess, p - sol.p_max)
        scan = optimal_time_numeric(sol)
        scan_excess = max(scan_excess, scan.predicted_success - sol.p_reachable)
        # a complex ratio's plan reaches the lower cap p_max - (n-r)(M-R)
        plan = optimal_time(sol, 0)
        p_at_minimum = success_probability_analytic(sol, plan.t_real)
        reach_gap = max(reach_gap, abs(p_at_minimum - sol.p_reachable))
        scan_excess = max(scan_excess, sol.p_reachable - sol.p_max)

    ok = (
        bound_excess <= 1e-12
        and tightness_gap <= 1e-12
        and scan_excess <= 1e-12
        and reach_gap <= 1e-12
    )
    _report(
        5,
        "bound and tightness",
        ok,
        f"bound excess {bound_excess:.2e}, tightness gap {tightness_gap:.2e}, "
        f"complex-ratio excess {scan_excess:.2e}, reachable-cap gap {reach_gap:.2e}",
    )


def test_criterion_6_optimal_time_planning():
    big = uniform_state(1024, 1)
    sol = solve(big)
    plan = optimal_time(sol, 0)
    achieved = success_probability(run(big, plan.t_step))
    # scan the iterative engine over one period of the probability
    # (the first measurement window; later windows repeat the same range)
    window = math.ceil(math.pi / sol.omega)
    series = iterative_success_series(big, window)
    scan_argmax = int(np.argmax(series))

    small = uniform_state(4, 1)
    plan_small = optimal_time(solve(small), 0)
    p_small = success_probability(run(small, plan_small.t_step))

    ok = (
        plan.t_step == 25
        and achieved >= 0.999
        and plan.t_step == scan_argmax
        and plan_small.t_step == 1
        and abs(p_small - 1.0) <= 1e-12
    )
    _report(
        6,
        "optimal-time planning",
        ok,
        f"n=1024: t={plan.t_step}, P={achieved:.6f}, scan argmax {scan_argmax}; "
        f"n=4: t={plan_small.t_step}, P={p_small:.15f}",
    )


def test_criterion_7_expansion_quality():
    diffs = []
    for exponent in (10, 14, 18):
        n = 2**exponent
        amp = 1.0 / math.sqrt(n)
        sol = solve_summary(n, 1, amp, amp, 0.0)
        exact = optimal_time(sol, 0).t_real
        diffs.append(abs(exact - optimal_time_approx(sol)))
        if exponent == 18:
            leading = exact / math.sqrt(n)
    ok = (
        diffs[0] > diffs[1] > diffs[2]
        and diffs[0] <= 1.0
        and abs(leading - math.pi / 4) / (math.pi / 4) <= 0.01
    )
    _report(
        7,
        "expansion quality",
        ok,
        f"diffs {diffs[0]:.2e} > {diffs[1]:.2e} > {diffs[2]:.2e}, "
        f"T/sqrt(N) at 2^18 = {leading:.6f}",
    )


def test_criterion_8_sqrt_scaling():
    sizes = [2**e for e in range(8, 17)]
    seed_offset, n_seeds = 1000, 400
    mean_steps = []
    for n in sizes:
        cfg = SearchConfig(n, (0,))
        steps = [
            optimal_time_numeric(
                solve(generate(DistributionSpec("random-real", cfg, seed=seed_offset + s)))
            ).t_step
            for s in range(n_seeds)
        ]
        mean_steps.append(float(np.mean(steps)))
    slope = float(np.polyfit(np.log(sizes), np.log(mean_steps), 1)[0])
    ok = abs(slope - 0.5) <= 0.02
    _report(8, "sqrt scaling", ok, f"fitted exponent {slope:.4f}")


def test_criterion_9_diagonalization_checks():
    rng = np.random.default_rng(99)
    worst_gamma = 0.0
    worst_cos = 0.0
    worst_evolution = 0.0
    all_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 8193))
        r = int(rng.integers(1, n // 2 + 1))
        report = verify_diagonalization(SearchConfig(n, tuple(range(r))))
        all_ok = all_ok and report.ok
        worst_gamma = max(worst_gamma, report.gamma_error)
        worst_cos = max(worst_cos, abs(math.cos(report.omega) - (1 - 2 * r / n)))
        worst_evolution = max(worst_evolution, report.evolution_error)
    ok = (
        all_ok
        and worst_gamma <= 1e-12
        and worst_cos <= 1e-12
        and worst_evolution <= 1e-10
    )
    _report(
        9,
        "diagonalization checks",
        ok,
        f"max |gamma-1| {worst_gamma:.2e}, max cos dev {worst_cos:.2e}, "
        f"max evolution dev {worst_evolution:.2e}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    invocations = [
        ["simulate", "--n", "64", "--r", "2", "--dist", "random-complex",
         "--seed", "13", "--steps", "50"],
        ["predict", "--n", "4096", "--r", "3", "--dist", "random-real",
         "--seed", "2", "--format", "json"],
        ["sweep", "--n", "256,512", "--r", "1,2",
         "--dist", "uniform,random-real", "--seeds", "0:3"],
    ]
    ok = True
    for i, argv in enumerate(invocations):
        a = tmp_path / f"a{i}.out"
        b = tmp_path / f"b{i}.out"
        ok = ok and main(argv + ["--out", str(a)]) == 0
        ok = ok and main(argv + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    _report(10, "CLI determinism", ok, f"{len(invocations)} command pairs byte-identical")
