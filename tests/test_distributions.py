"""Initial-state construction and ingestion."""

import json
import math

import numpy as np
import pytest

from groversim.core import SearchConfig, save_state, state_to_dict
from groversim.distributions import (
    KINDS,
    DistributionSpec,
    _gaussian_profile,
    generate,
    ingest,
)
from groversim.errors import ValidationError

from oracles import summary_stats


CFG16 = SearchConfig(16, (0, 5))


def test_spec_rejects_unknown_kind_and_bad_params():
    with pytest.raises(ValidationError):
        DistributionSpec("lorentzian", CFG16)
    with pytest.raises(ValidationError):
        DistributionSpec("uniform", CFG16, seed=-1)
    with pytest.raises(ValidationError):
        DistributionSpec("delta", CFG16, delta_index=16)
    with pytest.raises(ValidationError):
        DistributionSpec("gaussian-real", CFG16, gaussian_spread=0.0)


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("uniform", {"delta_index": 3}, "delta index applies only to kind 'delta'"),
        ("delta", {"gaussian_center": 2.0}, "gaussian center applies only to kind"),
        ("random-real", {"gaussian_spread": 2.0}, "gaussian spread applies only to kind"),
        # the profile's 4*spread**2 would be 0, and 0/0 at a center on an index
        ("gaussian-real", {"gaussian_spread": 1e-200}, "gaussian spread 1e-200 is too small"),
        # (i - center)**2 / (4*spread**2) would be inf/inf
        ("gaussian-real", {"gaussian_center": 1e300, "gaussian_spread": 1e300},
         r"gaussian center 1e\+300 and gaussian spread 1e\+300 are both too large"),
    ],
)
def test_spec_refuses_parameters_the_kind_cannot_use(kind, params, message):
    with pytest.raises(ValidationError, match=message):
        DistributionSpec(kind, SearchConfig(17, (0,)), **params)


@pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
def test_spec_rejects_a_non_finite_gaussian_center(center):
    # not reported as the zero vector the profile would collapse to
    with pytest.raises(ValidationError, match="gaussian center must be finite"):
        DistributionSpec("gaussian-real", CFG16, gaussian_center=center)


def test_uniform_is_exact():
    state = generate(DistributionSpec("uniform", SearchConfig(4, (0,))))
    assert np.array_equal(state.amplitudes, np.full(4, 0.5, dtype=complex))
    assert state.step == 0


def test_uniform_has_zero_spread():
    stats = summary_stats(generate(DistributionSpec("uniform", CFG16)))
    assert stats.sigma_k_sq == 0.0
    assert stats.sigma_l_sq == 0.0


def test_delta_places_unit_weight():
    state = generate(DistributionSpec("delta", SearchConfig(4, (0,)), delta_index=2))
    assert np.array_equal(state.amplitudes, np.array([0, 0, 1, 0], dtype=complex))
    # default target is the last index
    state = generate(DistributionSpec("delta", SearchConfig(4, (0,))))
    assert state.amplitudes[3] == 1.0


@pytest.mark.parametrize("kind", KINDS)
def test_generated_states_are_normalized(kind):
    state = generate(DistributionSpec(kind, CFG16, seed=7))
    assert abs(state.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("kind", ["random-real", "random-complex"])
def test_seeded_determinism_is_byte_identical(kind):
    spec = DistributionSpec(kind, CFG16, seed=123456789)
    doc_a = json.dumps(state_to_dict(generate(spec)))
    doc_b = json.dumps(state_to_dict(generate(spec)))
    assert doc_a == doc_b
    other = json.dumps(
        state_to_dict(generate(DistributionSpec(kind, CFG16, seed=987654321)))
    )
    assert doc_a != other


def test_random_real_is_real_and_complex_is_not():
    real_state = generate(DistributionSpec("random-real", CFG16, seed=1))
    assert np.max(np.abs(real_state.amplitudes.imag)) == 0.0
    complex_state = generate(DistributionSpec("random-complex", CFG16, seed=1))
    assert np.max(np.abs(complex_state.amplitudes.imag)) > 0.0


def test_gaussian_profile_shape():
    spec = DistributionSpec(
        "gaussian-real", SearchConfig(64, (0,)), gaussian_center=20.0, gaussian_spread=4.0
    )
    state = generate(spec)
    probs = np.abs(state.amplitudes) ** 2
    assert int(np.argmax(probs)) == 20
    # |a|^2 falls off like a normal density with the requested spread
    assert probs[24] / probs[20] == pytest.approx(math.exp(-0.5), rel=1e-12)


@pytest.mark.parametrize("n", [2, 17, 64, 1001])
def test_mirrored_gaussian_profile_has_the_bits_of_one_exp_per_entry(n):
    # centers whose double is an index sum (mirrored: the middle, the ends,
    # a half-integer) and ones whose mirror partners fall outside the axis
    for center in [(n - 1) / 2, 0.0, 0.5, 3.0, 3.5, n - 1.0, n - 0.5, 2.0 * n - 3.0,
                   -0.5, 2.0 * n, 1.25, n / 3, 1e300]:
        for spread in (n / 8, 0.7, 1e300):
            i = np.arange(n, dtype=np.float64)
            with np.errstate(all="ignore"):
                exponent = -((i - center) ** 2) / (4.0 * np.float64(spread) ** 2)
            expected = np.array([math.exp(x) for x in exponent])
            profile = _gaussian_profile(n, center, spread)
            assert profile.tobytes() == expected.tobytes(), (center, spread)


def test_zero_vector_fails():
    # a profile centered absurdly far away underflows to an exact zero
    # vector; being deterministic, so would any resample
    spec = DistributionSpec(
        "gaussian-real", CFG16, gaussian_center=-1e9, gaussian_spread=1e-3
    )
    with pytest.raises(ValidationError, match="zero vector"):
        generate(spec)


def test_generate_reports_a_statevector_too_large_for_memory():
    # 2^44 complex amplitudes (256 TiB) fail before anything is allocated;
    # the CLI words the message
    spec = DistributionSpec("uniform", SearchConfig(2**44, (0,)))
    with pytest.raises(MemoryError):
        generate(spec)


# -- ingestion ------------------------------------------------------------------


def _doc_file(tmp_path, state, scale=1.0):
    doc = state_to_dict(state)
    doc["amplitudes"] = [[re * scale, im * scale] for re, im in doc["amplitudes"]]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    return path


def test_ingest_round_trip_bitwise(tmp_path):
    state = generate(DistributionSpec("random-complex", CFG16, seed=5))
    path = tmp_path / "state.json"
    save_state(state, path)
    back = ingest(path)
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_ingest_rejects_denormalized_without_flag(tmp_path):
    state = generate(DistributionSpec("uniform", CFG16))
    with pytest.raises(ValidationError, match="deviates from 1 by more than 1e-11"):
        ingest(_doc_file(tmp_path, state, scale=0.98))


@pytest.mark.parametrize("renormalize", [False, True])
def test_ingest_refuses_a_norm_that_overflows(tmp_path, renormalize):
    # each amplitude is finite, the sum of their squares is not
    doc = {"n": 4, "marked": [0], "amplitudes": [[1e300, 0.0]] * 4, "step": 0}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="state norm overflows"):
        ingest(path, renormalize=renormalize)


def test_ingest_renormalizes_with_flag(tmp_path):
    state = generate(DistributionSpec("uniform", CFG16))
    back = ingest(_doc_file(tmp_path, state, scale=0.98), renormalize=True)
    assert abs(back.norm() - 1.0) < 1e-12


def test_ingest_accepts_tiny_norm_slack(tmp_path):
    state = generate(DistributionSpec("uniform", CFG16))
    back = ingest(_doc_file(tmp_path, state, scale=1.0 + 5e-12))
    assert abs(back.norm() - 1.0) < 1e-11


def test_ingest_rejects_malformed_json(tmp_path):
    path = tmp_path / "state.json"
    path.write_text("{broken")
    with pytest.raises(ValidationError):
        ingest(path)


def test_ingest_rejects_out_of_range_marked_index(tmp_path):
    state = generate(DistributionSpec("uniform", CFG16))
    doc = state_to_dict(state)
    doc["marked"] = [0, 99]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        ingest(path)
