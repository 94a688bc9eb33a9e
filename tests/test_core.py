"""Iterative engine: step semantics, statistics, norms, state I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim.core import (
    AmplitudeState,
    SearchConfig,
    load_state,
    run,
    save_state,
    state_from_dict,
    state_to_dict,
    success_probability,
)
from groversim.distributions import KINDS, DistributionSpec, generate
from groversim.errors import ValidationError

from oracles import (
    dense_grover_step,
    grover_step,
    inversion_about_average,
    phase_flip_marked,
    random_state,
    recurrence_step,
    summary_stats,
    weighted_norm,
)


def uniform_state(n, marked=(0,)):
    cfg = SearchConfig(n, tuple(marked))
    return AmplitudeState(cfg, np.full(n, 1.0 / math.sqrt(n), dtype=complex))


# -- SearchConfig validation -------------------------------------------------


def test_config_rejects_degenerate_geometry():
    with pytest.raises(ValidationError):
        SearchConfig(1, (0,))
    with pytest.raises(ValidationError):
        SearchConfig(4, ())
    with pytest.raises(ValidationError):
        SearchConfig(4, (0, 0))
    with pytest.raises(ValidationError):
        SearchConfig(4, (4,))
    with pytest.raises(ValidationError):
        SearchConfig(4, (-1,))


def test_config_large_r_gate():
    # the library admits every 1 <= r <= n-1; r <= n/2 is the CLI's rule
    cfg = SearchConfig(4, (0, 1, 2))
    assert cfg.r == 3
    with pytest.raises(ValidationError, match="degenerate"):
        SearchConfig(4, (0, 1, 2, 3))  # r = n always rejected


def test_config_sorts_marked():
    cfg = SearchConfig(8, (5, 1, 3))
    assert cfg.marked == (1, 3, 5)
    assert list(cfg.unmarked_idx) == [0, 2, 4, 6, 7]


def test_config_accepts_numpy_integer_size():
    cfg = SearchConfig(np.int64(16), (0,))
    assert cfg.n == 16 and type(cfg.n) is int
    assert cfg == SearchConfig(16, (0,))
    with pytest.raises(ValidationError):
        SearchConfig(np.float64(16), (0,))


def test_state_shape_checked():
    cfg = SearchConfig(4, (0,))
    with pytest.raises(ValidationError):
        AmplitudeState(cfg, np.zeros(3, dtype=complex))
    with pytest.raises(ValidationError):
        AmplitudeState(cfg, np.zeros(4, dtype=complex), step=-1)


# -- phase flip ---------------------------------------------------------------


def test_phase_flip_examples():
    state = uniform_state(4)
    flipped = phase_flip_marked(state)
    assert np.array_equal(flipped.amplitudes, np.array([-0.5, 0.5, 0.5, 0.5]))
    assert flipped.step == state.step

    cfg = SearchConfig(4, (1,))
    amps = np.array([0.1, 0.3 + 0.4j, 0.2, 0.5], dtype=complex)
    flipped = phase_flip_marked(AmplitudeState(cfg, amps))
    assert flipped.amplitudes[1] == -(0.3 + 0.4j)
    assert flipped.amplitudes[0] == 0.1

    zero = AmplitudeState(cfg, np.array([1, 0, 0, 0], dtype=complex))
    assert phase_flip_marked(zero).amplitudes[1] == 0


def test_phase_flip_is_exact_involution():
    state = random_state(64, 7, 3)
    twice = phase_flip_marked(phase_flip_marked(state))
    assert np.array_equal(twice.amplitudes, state.amplitudes)
    assert phase_flip_marked(state).norm() == state.norm()


# -- inversion about average --------------------------------------------------


def test_inversion_fixed_point_for_equal_amplitudes():
    state = uniform_state(8, (0, 3))
    out = inversion_about_average(state)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_inversion_classic_n4():
    cfg = SearchConfig(4, (0,))
    state = AmplitudeState(cfg, np.array([-0.5, 0.5, 0.5, 0.5], dtype=complex))
    out = inversion_about_average(state)
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_inversion_swap_n2():
    cfg = SearchConfig(2, (0,))
    state = AmplitudeState(cfg, np.array([1, 0], dtype=complex))
    out = inversion_about_average(state)
    np.testing.assert_allclose(out.amplitudes, [0, 1], atol=1e-15)


def test_inversion_matches_dense_matrix():
    from oracles import dense_diffusion_matrix

    for seed, n in [(0, 3), (1, 16), (2, 64)]:
        state = random_state(n, 1, seed)
        out = inversion_about_average(state)
        expected = dense_diffusion_matrix(n) @ state.amplitudes
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_inversion_is_involution_and_norm_preserving():
    state = random_state(128, 9, 11)
    once = inversion_about_average(state)
    assert abs(once.norm() - 1.0) < 1e-12
    twice = inversion_about_average(once)
    np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-14)


# -- full step ----------------------------------------------------------------


def test_step_solves_n4_in_one_iteration():
    out = grover_step(uniform_state(4))
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-15)
    assert out.step == 1
    assert success_probability(out) == pytest.approx(1.0, abs=1e-14)


def test_step_solves_n8_r2_in_one_iteration():
    out = grover_step(uniform_state(8, (0, 1)))
    np.testing.assert_allclose(
        out.amplitudes[:2], [1 / math.sqrt(2)] * 2, atol=1e-15
    )
    np.testing.assert_allclose(out.amplitudes[2:], np.zeros(6), atol=1e-15)


def test_step_matches_elementwise_recurrence():
    for seed in range(10):
        state = random_state(16, 3, seed)
        out = grover_step(state)
        np.testing.assert_allclose(out.amplitudes, recurrence_step(state), atol=1e-12)


def test_step_matches_dense_matrix_oracle():
    for seed in range(10):
        state = random_state(32, 4, seed)
        out = grover_step(state)
        np.testing.assert_allclose(out.amplitudes, dense_grover_step(state), atol=1e-12)


# -- multi-step runs ----------------------------------------------------------


def test_run_zero_steps_is_identity():
    state = random_state(16, 2, 0)
    out = run(state, 0)
    assert np.array_equal(out.amplitudes, state.amplitudes)
    assert out.step == state.step


def test_run_rejects_negative_steps():
    with pytest.raises(ValidationError):
        run(uniform_state(4), -1)


def test_run_is_bit_identical_to_iterated_steps():
    state = random_state(32, 3, 7)
    via_run = run(state, 17)
    via_steps = state
    for _ in range(17):
        via_steps = grover_step(via_steps)
    assert np.array_equal(via_run.amplitudes, via_steps.amplitudes)
    assert via_run.step == via_steps.step == 17


def test_run_n4_three_steps_returns_to_quarter_probability():
    # the n=4 oscillation has period 6, so after 3 steps the marked
    # probability is back at sin^2(7*pi/6) = 1/4
    out = run(uniform_state(4), 3)
    assert success_probability(out) == pytest.approx(0.25, abs=1e-12)


def test_run_n1024_hits_grover_optimum():
    out = run(uniform_state(1024), 25)
    assert success_probability(out) >= 0.999


def test_norm_drift_stays_below_budget_over_1000_steps():
    state = random_state(64, 5, 42)
    out = run(state, 1000)
    assert abs(out.norm() - 1.0) <= 1e-10


# -- success probability ------------------------------------------------------


def test_success_probability_examples():
    assert success_probability(uniform_state(4)) == pytest.approx(0.25, abs=1e-15)
    cfg = SearchConfig(4, (0,))
    assert success_probability(
        AmplitudeState(cfg, np.array([1, 0, 0, 0], dtype=complex))
    ) == pytest.approx(1.0)
    assert (
        success_probability(AmplitudeState(cfg, np.array([0, 1, 0, 0], dtype=complex)))
        == 0.0
    )


# -- summary statistics -------------------------------------------------------


def test_stats_uniform():
    st_ = summary_stats(uniform_state(4))
    assert st_.kbar == pytest.approx(0.5)
    assert st_.lbar == pytest.approx(0.5)
    assert st_.sigma_k_sq == 0.0
    assert st_.sigma_l_sq == 0.0


def test_stats_delta_on_unmarked():
    cfg = SearchConfig(4, (0,))
    state = AmplitudeState(cfg, np.array([0, 1, 0, 0], dtype=complex))
    st_ = summary_stats(state)
    assert st_.kbar == 0
    assert st_.lbar == pytest.approx(1 / 3, abs=1e-15)
    assert st_.sigma_l_sq == pytest.approx(2 / 9, abs=1e-15)


def test_stats_variances_real_nonnegative_for_complex_states():
    state = random_state(32, 4, 5)
    st_ = summary_stats(state)
    assert isinstance(st_.sigma_k_sq, float) and st_.sigma_k_sq >= 0
    assert isinstance(st_.sigma_l_sq, float) and st_.sigma_l_sq >= 0


def test_stats_weighted_norm_identity():
    for seed in range(10):
        state = random_state(64, 9, seed)
        st_ = summary_stats(state)
        assert weighted_norm(st_, 64, 9) == pytest.approx(1.0, abs=1e-10)


def test_step_matches_recurrence_across_sizes():
    # one exact step against the elementwise recurrence, 100 seeded states
    sizes = [16, 256, 1024, 4096]
    for seed in range(100):
        n = sizes[seed % len(sizes)]
        r = 1 + seed % (n // 2)
        state = random_state(n, min(r, n // 2), 500 + seed)
        out = grover_step(state)
        np.testing.assert_allclose(out.amplitudes, recurrence_step(state), atol=1e-12)


def test_probability_identity_along_iterative_run():
    # P(t) equals the time-independent cap minus the unmarked-average term,
    # with everything measured on the iterated state itself
    for seed in range(5):
        state = random_state(128, 6, 60 + seed)
        n, r = 128, state.config.r
        cap = 1.0 - (n - r) * summary_stats(state).sigma_l_sq
        current = state
        for t in range(120):
            if t:
                current = run(current, 1)
            lbar = summary_stats(current).lbar
            assert success_probability(current) == pytest.approx(
                cap - (n - r) * abs(lbar) ** 2, abs=1e-10
            )


# -- property tests -----------------------------------------------------------


@st.composite
def small_states(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    r = draw(st.integers(min_value=1, max_value=max(1, n // 2)))
    marked = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=r,
            max_size=r,
            unique=True,
        )
    )
    values = draw(
        st.lists(
            st.complex_numbers(
                min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
            ),
            min_size=n,
            max_size=n,
        )
    )
    amps = np.array(values, dtype=complex)
    norm = np.linalg.norm(amps)
    if norm < 1e-6:
        amps = np.zeros(n, dtype=complex)
        amps[0] = 1.0
    else:
        amps = amps / norm
    return AmplitudeState(SearchConfig(n, tuple(marked)), amps)


@st.composite
def prefix_states(draw):
    """A state on the marked prefix 0..r-1: any kind, or raw complex normals."""
    n = draw(st.integers(min_value=2, max_value=4096))
    r = draw(st.integers(min_value=1, max_value=n // 2))
    config = SearchConfig(n, tuple(range(r)))
    kind = draw(st.sampled_from(KINDS + ("normals",)))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    if kind == "normals":
        rng = np.random.default_rng(seed)
        return AmplitudeState(config, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return generate(DistributionSpec(kind, config, seed=seed))


@given(prefix_states())
@settings(max_examples=200, deadline=None)
def test_property_prefix_slice_gives_the_gathered_bits(state):
    cfg, amps = state.config, state.amplitudes
    assert cfg.unmarked_idx == slice(cfg.r, None)
    gathered = amps[np.flatnonzero(np.arange(cfg.n) >= cfg.r)]
    lbar = gathered.mean()
    assert amps[cfg.unmarked_idx].mean().tobytes() == lbar.tobytes()
    stats = summary_stats(state)
    assert complex(stats.lbar) == complex(lbar)
    sigma_l_sq = float(np.mean(np.abs(gathered - complex(lbar)) ** 2))
    assert stats.sigma_l_sq.hex() == sigma_l_sq.hex()


@given(small_states())
@settings(max_examples=200, deadline=None)
def test_property_single_step_preserves_norm(state):
    assert abs(grover_step(state).norm() - 1.0) < 1e-12


@given(small_states())
@settings(max_examples=200, deadline=None)
def test_property_step_equals_recurrence(state):
    np.testing.assert_allclose(
        grover_step(state).amplitudes, recurrence_step(state), atol=1e-12
    )


@given(small_states(), st.integers(min_value=0, max_value=60))
@settings(max_examples=100, deadline=None)
def test_property_success_probability_in_unit_interval(state, steps):
    p = success_probability(run(state, steps))
    assert -1e-10 <= p <= 1 + 1e-10


# -- state JSON ---------------------------------------------------------------


def _save_indented(state, path):
    # the layout of files written before the writer went to one line
    path.write_text(json.dumps(state_to_dict(state), indent=2) + "\n")


def test_state_json_round_trip_is_exact(tmp_path):
    big = 1.7976931348623157e308
    extremes = AmplitudeState(
        SearchConfig(4, (1,)),
        [complex(0.0, -0.0), complex(-0.0, 0.0), complex(5e-324, -2.2e-310),
         complex(big, -big)],
        step=7,
    )
    # a strided view of another state's amplitudes
    strided = AmplitudeState(SearchConfig(8, (2,)), random_state(16, 3, 9).amplitudes[::2])
    path = tmp_path / "state.json"
    for state in (random_state(16, 3, 9), extremes, strided):
        for write in (save_state, _save_indented):
            write(state, path)
            back = load_state(path)
            assert np.array_equal(back.amplitudes, state.amplitudes)
            assert back.amplitudes.tobytes() == state.amplitudes.tobytes()
            assert (back.config.n, back.config.marked) == (
                state.config.n, state.config.marked
            )
            assert back.step == state.step


def test_state_json_round_trip_via_file(tmp_path):
    state = random_state(8, 2, 1)
    path = tmp_path / "state.json"
    # unknown keys such as "meta" are ignored
    path.write_text(json.dumps(dict(state_to_dict(state), meta={"rng": "numpy-pcg64"})))
    back = load_state(path)
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_state_dict_layout():
    state = uniform_state(4)
    doc = state_to_dict(state)
    assert set(doc) == {"n", "marked", "amplitudes", "step"}
    assert doc["n"] == 4
    assert doc["marked"] == [0]
    assert doc["amplitudes"][0] == [0.5, 0.0]
    assert doc["step"] == 0


def test_state_from_dict_validation():
    good = state_to_dict(uniform_state(4))
    for mutation in [
        lambda d: d.pop("n"),
        lambda d: d.update(n="4"),
        lambda d: d.update(marked=[0, 9]),
        lambda d: d.update(marked="0"),
        lambda d: d.update(amplitudes=good["amplitudes"][:2]),
        lambda d: d.update(amplitudes=[[0.5], [0.5], [0.5], [0.5]]),
        lambda d: d["amplitudes"].__setitem__(1, ["0.5", 0.0]),
        lambda d: d["amplitudes"].__setitem__(1, None),
        lambda d: d["amplitudes"].__setitem__(1, [0.5, None]),
        lambda d: d["amplitudes"].__setitem__(1, [[0.5, 0.0], 0.0]),
        lambda d: d["amplitudes"].__setitem__(1, [10**400, 0]),
        lambda d: d.update(step=-3),
        # JSON booleans are not integers, though Python's bool is an int
        lambda d: d.update(n=True),
        lambda d: d.update(marked=[True]),
        lambda d: d.update(step=True),
    ]:
        doc = json.loads(json.dumps(good))
        mutation(doc)
        with pytest.raises(ValidationError):
            state_from_dict(doc)


def test_load_state_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    too_many_digits = b'{"n": 2, "marked": [0], "amplitudes": [[1' + b"0" * 5000
    for text in (b"{not json", b"\xff\xfe", b"[" * 100_000, too_many_digits):
        path.write_bytes(text)
        with pytest.raises(ValidationError):
            load_state(path)
