"""The package's public surface: what it exports, and what it leaves to the tests."""

import ast
import inspect
from pathlib import Path

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
    "summary_stats",
    "SummaryStats",
)


@pytest.mark.parametrize("name", groversim.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(groversim, name) is not None


def test_no_exported_name_takes_allow_large_r():
    # r <= n/2 is a CLI rule (--allow-large-r); the library admits r <= n-1
    for name in groversim.__all__:
        obj = getattr(groversim, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
            assert "allow_large_r" not in inspect.signature(obj).parameters, name


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


# numpy calls whose bits depend on the host: a BLAS reduction splits its
# sum by thread count, and np.exp's loop is picked by CPU
BLAS_NAMES = ("linalg", "dot", "vdot", "inner", "matmul")


def _host_dependent_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and (
            node.attr in BLAS_NAMES
            or node.attr == "exp" and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            yield from ((node.lineno, a.name) for a in node.names
                        if a.name in BLAS_NAMES + ("exp",))


def test_package_calls_no_blas_and_no_numpy_exp():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(Path(groversim.__file__).parent.glob("*.py"))
        for line, name in _host_dependent_calls(ast.parse(path.read_text()))
    ]
    assert found == []


def test_package_parses_as_python_3_10():
    """Every module is valid Python 3.10 grammar, the oldest pyproject admits.

    This checks grammar only, not APIs: ast does not know which library
    functions a version has, so a call new in 3.11 still passes.
    """
    for path in sorted(Path(groversim.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), filename=path.name, feature_version=(3, 10))
