"""Seeded workload decks for the groversim benchmark, and their output checks.

A workload is a deck: a fixed list of operations built from the seed and
replayed pass after pass.  The seed chooses the values each operation
works on (distribution kinds and seeds, scalar inputs, jitter of ``n``)
and their order; the amount of work in each slot is fixed by design, so
runs on different seeds measure the same thing.  Every deck has an odd
number of slots, so over whole passes the median latency falls inside
one slot's cluster of samples rather than in the gap between two slots.

Each check uses the engine the command did not: iterated results are
checked against the closed form, planned results against an independent
evaluation of the averages' rotation written out here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from groversim.analytic import solve, success_probability_analytic
from groversim.core import AmplitudeState, SearchConfig, load_state
from groversim.distributions import KINDS, DistributionSpec, generate

TOL = 1e-10


@dataclass
class Op:
    """One CLI operation.  ``state`` is saved to the state file first."""

    argv: list[str]
    n: int
    r: int
    kind: str = ""
    dist_seed: int = 0
    steps: int = 0
    scalars: Optional[tuple[complex, complex, float]] = None
    state: Optional[AmplitudeState] = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def statevector_len(self) -> int:
        """Length of the largest statevector the operation allocates."""
        return 0 if self.scalars else self.n


def uniform_optimal_step(n: int, r: int) -> int:
    """First optimal step of a uniform start, pi/(2*omega) - 1/2, rounded."""
    return round(math.pi / (4.0 * math.asin(math.sqrt(r / n))) - 0.5)


def _state(kind: str, n: int, r: int, seed: int) -> AmplitudeState:
    return generate(DistributionSpec(kind, SearchConfig(n, tuple(range(r))), seed=seed))


def trajectory(rng: np.random.Generator) -> list[Op]:
    # every (command, n, r) once, plus the heaviest slot again for an odd deck
    slots = [(c, n, r) for n in (2**14, 2**16) for r in (1, 2, 3, 4)
             for c in ("simulate", "compare")] + [("simulate", 2**16, 1)]
    kinds = rng.permutation(KINDS * 4)[: len(slots)]
    ops = []
    for (command, n, r), kind in zip(slots, kinds):
        seed = int(rng.integers(2**31))
        # the first optimal step of any start depends on it; a uniform
        # start's keeps the work per slot the same for every seed
        steps = uniform_optimal_step(n, r)
        argv = [command, "--n", str(n), "--r", str(r), "--dist", str(kind),
                "--seed", str(seed), "--steps", str(steps)]
        ops.append(Op(argv, n, r, kind=str(kind), dist_seed=seed, steps=steps))
    return ops


# n is log-uniform on [2^20, 2^44] by systematic sampling: slot p sits at
# log2(n) = 20 + 24 * (p + u) / PLAN_SLOTS with one seeded offset u, so the
# heaviest slots move by at most 1/PLAN_SLOTS of the range between seeds.
PLAN_SLOTS = 75
# r for slot p; a fixed spread over 1..16 so no seed gets all-heavy slots
PLAN_R = (1, 9, 5, 13, 3, 11, 7, 15, 2, 10, 6, 14, 4, 12, 8, 16)


def plan_scalar(rng: np.random.Generator) -> list[Op]:
    u = rng.random()
    ops = []
    for p in range(PLAN_SLOTS):
        n = int(2.0 ** (20 + 24 * (p + u) / PLAN_SLOTS))
        r = PLAN_R[p % len(PLAN_R)]
        real = p % 3 == 1  # a third of the slots, never the heaviest one
        # weights of marked mean, unmarked mean, unmarked spread, marked spread
        wk, wl, ws, _ = rng.dirichlet((2.0, 2.0, 2.0, 1.0))
        k_mag, l_mag = math.sqrt(wk / r), math.sqrt(wl / (n - r))
        if real:
            kbar0 = complex(k_mag * rng.choice((-1.0, 1.0)))
            lbar0 = complex(l_mag * rng.choice((-1.0, 1.0)))
        else:
            theta = rng.uniform(0.0, 2 * math.pi)
            delta = rng.uniform(0.2, math.pi - 0.2) * rng.choice((-1.0, 1.0))
            kbar0 = k_mag * complex(math.cos(theta), math.sin(theta))
            lbar0 = l_mag * complex(math.cos(theta + delta), math.sin(theta + delta))
        sigma = float(ws / (n - r))
        argv = ["predict", "--n", str(n), "--r", str(r),
                f"--kbar0={_num(kbar0)}", f"--lbar0={_num(lbar0)}",
                f"--sigma-l-sq={sigma!r}"]
        if real:
            argv.append("--j=0,1,2,3")
        ops.append(Op(argv, n, r, scalars=(kbar0, lbar0, sigma)))
    return ops


def _num(z: complex) -> str:
    return repr(z.real) if z.imag == 0.0 else repr(z)


# two small and three large states: the median is a large one
STATE_SLOTS = ((2**14, "random-real"), (2**14, "random-complex"),
               (2**16, "random-real"), (2**16, "random-complex"),
               (2**16, "random-complex"))


def state_io(rng: np.random.Generator) -> list[Op]:
    ops = []
    for n, kind in STATE_SLOTS:
        r = int(rng.integers(1, 5))
        seed = int(rng.integers(2**31))
        ops.append(Op(["predict"], n, r, kind=kind, dist_seed=seed,
                      state=_state(kind, n, r, seed)))
    return ops


WORKLOADS = {"trajectory": trajectory, "plan-scalar": plan_scalar, "state-io": state_io}
# Share of each workload's time that slows with the host like the text loop
# of ``run.calibrate`` rather than its vector loop.  Fitted on a shared
# 2-vCPU Xeon by how the workload's operations followed the two loops over
# 8 minutes of varying load: simulate and compare spend most of their time
# in vector steps, state I/O in JSON text, and planning in both (scalar
# arithmetic at the median, vector scans in the tail).
TEXT_SHARE = {"trajectory": 0.2, "plan-scalar": 0.6, "state-io": 0.8}


def build(name: str, seed: int) -> list[Op]:
    """The workload's deck for this seed, in a seeded order."""
    rng = np.random.default_rng(seed)
    ops = WORKLOADS[name](rng)
    return [ops[i] for i in rng.permutation(len(ops))]


# -- checks ------------------------------------------------------------------


def _parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    meta, table = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            table.append(line.split(","))
    header, body = table[0], table[1:]
    return meta, [dict(zip(header, row)) for row in body]


def _unmarked_weight(n: int, r: int, kbar0: complex, lbar0: complex, t: float) -> float:
    """(n - r)|lbar(t)|^2 from the rotation of the averages."""
    omega = 2.0 * math.asin(math.sqrt(r / n))
    q = math.sqrt((n - r) / r)
    lbar = lbar0 * math.cos(omega * t) - kbar0 / q * math.sin(omega * t)
    return (n - r) * abs(lbar) ** 2


def _check_plan(text: str, n: int, r: int, kbar0: complex, lbar0: complex,
                sigma: float) -> bool:
    meta, rows = _parse_csv(text)
    p_max = float(meta["p_max"])
    if not rows or abs(p_max - (1.0 - (n - r) * sigma)) > TOL:
        return False
    for row in rows:
        predicted = float(row["predicted_success"])
        if predicted > p_max + TOL:
            return False
        if row["method"] == "closed-form":
            # the cap is reached where the unmarked average vanishes
            if _unmarked_weight(n, r, kbar0, lbar0, float(row["t_real"])) > TOL:
                return False
        expected = p_max - _unmarked_weight(n, r, kbar0, lbar0, int(row["t_step"]))
        if abs(predicted - expected) > TOL:
            return False
    return True


def check(op: Op, text: str, state_file: str) -> bool:
    """Whether the output of ``op`` (and its state file) is correct."""
    if op.command == "simulate":
        _, rows = _parse_csv(text)
        sol = solve(_state(op.kind, op.n, op.r, op.dist_seed))
        p = success_probability_analytic(sol, op.steps)
        return int(rows[-1]["t"]) == op.steps and abs(float(rows[-1]["p"]) - p) <= TOL
    if op.command == "compare":
        meta, rows = _parse_csv(text)
        return meta.get("within_tol") == "True" and len(rows) == op.steps + 1
    if op.state is None:
        return _check_plan(text, op.n, op.r, *op.scalars)
    amps = op.state.amplitudes
    if load_state(state_file).amplitudes.tobytes() != amps.tobytes():
        return False
    marked, unmarked = amps[: op.r], amps[op.r :]
    lbar0 = complex(unmarked.mean())
    sigma = float(np.mean(np.abs(unmarked - lbar0) ** 2))
    return _check_plan(text, op.n, op.r, complex(marked.mean()), lbar0, sigma)
