"""The package's public surface: what it exports, and what it leaves to the tests."""

import inspect

import pytest

import groversim
from groversim import analytic, cli, core, distributions, errors

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
