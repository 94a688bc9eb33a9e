"""Grover-search simulation for arbitrary initial amplitude distributions.

Two independent engines cover the same dynamics: an exact step-by-step
amplitude iterator (:mod:`groversim.core`) and a closed-form predictor
with measurement-time planning (:mod:`groversim.analytic`), plus initial
state construction (:mod:`groversim.distributions`) and a CLI
(:mod:`groversim.cli`).
"""

from .analytic import (
    ClosedFormSolution,
    MeasurementPlan,
    average_amplitudes,
    optimal_time,
    optimal_time_approx,
    reconstruct,
    solve,
    solve_summary,
    success_probability_analytic,
)
from .core import (
    AmplitudeState,
    SearchConfig,
    averages,
    load_state,
    run,
    save_state,
    state_from_dict,
    state_to_dict,
    success_probability,
)
from .distributions import (
    KINDS,
    RNG_ALGORITHM,
    DistributionSpec,
    generate,
    ingest,
)
from .errors import GroverSimError, InvariantError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "AmplitudeState",
    "ClosedFormSolution",
    "DistributionSpec",
    "GroverSimError",
    "InvariantError",
    "KINDS",
    "MeasurementPlan",
    "RNG_ALGORITHM",
    "SearchConfig",
    "ValidationError",
    "average_amplitudes",
    "averages",
    "generate",
    "ingest",
    "load_state",
    "optimal_time",
    "optimal_time_approx",
    "reconstruct",
    "run",
    "save_state",
    "solve",
    "solve_summary",
    "state_from_dict",
    "state_to_dict",
    "success_probability",
    "success_probability_analytic",
]
