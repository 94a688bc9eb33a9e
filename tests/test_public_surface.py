"""The package's public surface: what it exports, and what it leaves to the tests."""

import inspect

import numpy as np
import pytest

import groversim
from groversim import analytic, cli, core, distributions, errors
from groversim.analytic import optimal_time, reconstruct, solve, solve_summary
from groversim.core import AmplitudeState, SearchConfig, run
from groversim.distributions import DistributionSpec, generate
from groversim.errors import ValidationError

MODULES = (groversim, analytic, cli, core, distributions, errors)

# reference code that only the tests use; it lives in tests/oracles.py
ORACLE_ONLY = (
    "grover_step",
    "phase_flip_marked",
    "inversion_about_average",
    "phase_form",
    "weighted_norm",
    "optimal_time_numeric",
    "verify_diagonalization",
    "period",
)


@pytest.mark.parametrize("name", groversim.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(groversim, name) is not None


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_oracle_only_names_stay_out_of_the_package(module):
    classes = [obj for _, obj in inspect.getmembers(module, inspect.isclass)
               if obj.__module__.startswith("groversim")]
    for name in ORACLE_ONLY:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        for cls in classes:
            assert not hasattr(cls, name), f"{cls.__module__}.{cls.__qualname__}.{name}"


CFG = SearchConfig(16, (0,))
UNIFORM = generate(DistributionSpec("uniform", CFG))


# every integer parameter takes an int or a numpy integer, never a bool
# (JSON true would read as 1) and never a float (which int() truncates)
@pytest.mark.parametrize("value", [True, 1.7, np.float64(2.0)], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda v: SearchConfig(v, (0,)),
        lambda v: SearchConfig(16, (v,)),
        lambda v: AmplitudeState(CFG, UNIFORM.amplitudes, step=v),
        lambda v: run(UNIFORM, v),
        lambda v: solve_summary(v, 1, 0.25, 0.25, 0.0),
        lambda v: solve_summary(16, v, 0.25, 0.25, 0.0),
        lambda v: reconstruct(solve(UNIFORM), v),
        lambda v: optimal_time(solve(UNIFORM), v),
        lambda v: DistributionSpec("uniform", CFG, seed=v),
        lambda v: DistributionSpec("delta", CFG, delta_index=v),
    ],
    ids=["n", "marked", "step", "steps", "scalar-n", "scalar-r", "t", "j", "seed",
         "delta_index"],
)
def test_integer_parameters_refuse_bools_and_floats(call, value):
    with pytest.raises(ValidationError, match="integer"):
        call(value)
    call(np.int64(2))
