"""Command-line harness: simulate, predict, compare, sweep.

Outputs are machine-readable CSV or JSON with versioned schemas and no
timestamps, so identical invocations with identical seeds produce
byte-identical files.  CSV files start with a ``# key=value`` comment
block echoing the effective configuration; JSON documents carry the
same echo under ``"config"``.  Numbers are written with 17 significant
digits ('.' decimal separator, no locale dependence), which round-trips
every double exactly.

A ``--config`` JSON file maps flag names (as in ``allow_large_r`` for
``--allow-large-r``) to values; it is read as ``--flag=value`` options
placed before the command line's, so it is checked exactly like flags
and the command line wins.

Exit codes: 0 success, 1 invariant/agreement failure, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Iterator, NoReturn, Optional

import numpy as np

from .analytic import (
    ClosedFormSolution,
    MeasurementPlan,
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
    SummaryStats,
    averages,
    run,
    success_probability,
)
from .distributions import KINDS, RNG_ALGORITHM, DistributionSpec, generate, ingest
from .errors import GroverSimError, ValidationError

SERIES_SCHEMA = "groversim-series-v2"
COMPARE_SCHEMA = "groversim-compare-v2"
PLAN_SCHEMA = "groversim-plan-v2"
SWEEP_SCHEMA = "groversim-sweep-v2"

SERIES_HEADER = "t,kbar_re,kbar_im,lbar_re,lbar_im,p,norm"
COMPARE_HEADER = "t,p_iter,p_analytic,amp_dev,p_dev"
PREDICT_HEADER = "j,t_real,t_step,predicted_success,method"
SWEEP_HEADER = "n,r,dist,seed,method,t_exact,t_step,t_approx,p_step,p_max,status,error"

DEFAULT_TOL = 1e-10


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cpair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",") if part != ""]
    except ValueError as exc:
        raise ValidationError(f"{flag} expects a comma-separated integer list") from exc


def _parse_complex(text: str, flag: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ValidationError(
            f"{flag} expects a real or complex number such as 0.5 or 0.5+0.1j"
        ) from exc


def _parse_seed_list(text: str) -> list[int]:
    """Either a comma list ('0,1,5') or an inclusive-exclusive range ('0:8')."""
    if ":" in text:
        start_s, stop_s = text.split(":", 1)
        try:
            start, stop = int(start_s), int(stop_s)
        except ValueError as exc:
            raise ValidationError("--seeds range must look like start:stop") from exc
        if stop <= start:
            raise ValidationError("--seeds range must be non-empty")
        return list(range(start, stop))
    return _parse_int_list(text, "--seeds")


def _seed(text: str) -> int:
    """argparse type of --seed: an unsigned 64-bit integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(
            f"must be an unsigned 64-bit integer, got {text!r}"
        )
    return seed


# -- configuration file -----------------------------------------------------------


def _load_file_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed config file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config file must hold a JSON object")
    return doc


def _config_tokens(path: str, args: argparse.Namespace) -> list[str]:
    """The config file as ``--flag=value`` options of the parsed subcommand.

    Keys are the subcommand's option names with '_' for '-'.  A switch
    (an option whose parsed value is a bool) takes true or false; any
    other option a string or a number.  The ``=`` form keeps a value
    such as ``-0.5+0.1j`` from being read as an option.
    """
    known = vars(args)
    tokens = []
    for key, value in _load_file_config(path).items():
        if key not in known or key in ("config", "func", "subcommand"):
            raise ValidationError(f"unknown key {key!r} in config file")
        flag = "--" + key.replace("_", "-")
        if isinstance(known[key], bool):
            if not isinstance(value, bool):
                raise ValidationError(f"config key {key!r} must be true or false")
            if value:
                tokens.append(flag)
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            tokens.append(f"{flag}={value}")
        else:
            raise ValidationError(
                f"config key {key!r} must be a string or a number, got {value!r}"
            )
    return tokens


# -- problem setup --------------------------------------------------------------


def _resolve_marked(n: int, marked_text: Optional[str], r: Optional[int]) -> tuple[int, ...]:
    if marked_text is not None:
        marked = tuple(_parse_int_list(marked_text, "--marked"))
        if r is not None and len(marked) != int(r):
            raise ValidationError(
                f"--r {r} disagrees with --marked (got {len(marked)} indices)"
            )
        return marked
    if r is None:
        raise ValidationError("either --marked or --r is required")
    return tuple(range(int(r)))


@dataclass
class _Problem:
    state: AmplitudeState
    echo: dict[str, Any]
    seed: int


def _build_problem(args: argparse.Namespace) -> _Problem:
    seed = args.seed
    allow_large_r = args.allow_large_r
    if args.state is not None:
        if args.dist is not None:
            raise ValidationError("--state and --dist are mutually exclusive")
        state = ingest(
            args.state,
            renormalize=args.renormalize,
            allow_large_r=allow_large_r,
        )
        echo = {
            "n": state.config.n,
            "r": state.config.r,
            "marked": list(state.config.marked),
            "state": args.state,
            "seed": seed,
            "renormalize": args.renormalize,
            "allow_large_r": allow_large_r,
        }
        return _Problem(state, echo, seed)

    n = args.n
    if n is None:
        raise ValidationError("--n is required unless --state is given")
    marked = _resolve_marked(n, args.marked, args.r)
    if args.dist is None:
        raise ValidationError("--dist is required unless --state is given")
    config = SearchConfig(n, marked, allow_large_r=allow_large_r)
    spec = DistributionSpec(
        kind=args.dist,
        config=config,
        seed=seed,
        delta_index=args.delta_index,
        gaussian_center=args.gaussian_center,
        gaussian_spread=args.gaussian_spread,
    )
    state = generate(spec)
    echo = {
        "n": n,
        "r": config.r,
        "marked": list(config.marked),
        "dist": args.dist,
        "seed": seed,
        "rng": RNG_ALGORITHM,
        "allow_large_r": allow_large_r,
    }
    for key in ("delta_index", "gaussian_center", "gaussian_spread"):
        if getattr(args, key) is not None:
            echo[key] = getattr(args, key)
    return _Problem(state, echo, seed)


def _plan_dict(plan: MeasurementPlan) -> dict[str, Any]:
    return {
        "j": plan.j,
        "t_real": plan.t_real,
        "t_step": plan.t_step,
        "predicted_success": plan.predicted_success,
        "method": plan.method,
    }


# -- output ----------------------------------------------------------------------


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _comment_block(schema: str, echo: dict[str, Any]) -> list[str]:
    lines = [f"# {schema}"]
    for key in sorted(echo):
        lines.append(f"# {key}={echo[key]}")
    return lines


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# -- trajectory -------------------------------------------------------------------


def _resolve_steps(args: argparse.Namespace) -> int:
    if args.steps is None:
        raise ValidationError("--steps is required")
    if args.steps < 0:
        raise ValidationError("--steps must be non-negative")
    return args.steps


def _trajectory(state: AmplitudeState, steps: int) -> Iterator[AmplitudeState]:
    """The state after 0, 1, ..., ``steps`` search steps, one kernel call each."""
    current = state
    yield current
    for _ in range(steps):
        current = run(current, 1)
        yield current


# -- simulate ----------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    problem = _build_problem(args)
    steps = _resolve_steps(args)

    series = []
    for t, current in enumerate(_trajectory(problem.state, steps)):
        kbar, lbar = averages(current)
        series.append(
            {
                "t": t,
                "kbar": _cpair(kbar),
                "lbar": _cpair(lbar),
                "p": success_probability(current),
                "norm": current.norm(),
            }
        )
    plan = _plan_dict(optimal_time(solve(problem.state)))

    echo = dict(problem.echo)
    echo["steps"] = steps
    doc: dict[str, Any] = {
        "schema": SERIES_SCHEMA,
        "command": "simulate",
        "config": echo,
        "series": series,
        "plan": plan,
    }
    if args.sample:
        # current is the state after the last step
        rng = np.random.default_rng(problem.seed)
        probs = np.abs(current.amplitudes) ** 2
        probs /= probs.sum()
        doc["sampled_index"] = int(rng.choice(current.config.n, p=probs))

    if args.format == "json":
        _emit(_json_text(doc), args.out)
    else:
        lines = _comment_block(SERIES_SCHEMA, echo)
        for key, value in sorted(plan.items()):
            lines.append(f"# plan_{key}={value}")
        if "sampled_index" in doc:
            lines.append(f"# sampled_index={doc['sampled_index']}")
        lines.append(SERIES_HEADER)
        for row in series:
            lines.append(
                ",".join(
                    [
                        str(row["t"]),
                        _fmt(row["kbar"][0]),
                        _fmt(row["kbar"][1]),
                        _fmt(row["lbar"][0]),
                        _fmt(row["lbar"][1]),
                        _fmt(row["p"]),
                        _fmt(row["norm"]),
                    ]
                )
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- predict -------------------------------------------------------------------------


def _solution_summary(sol: ClosedFormSolution) -> dict[str, Any]:
    return {
        "n": sol.n,
        "r": sol.r,
        "omega": sol.omega,
        "phi": sol.phi,
        "alpha": _cpair(sol.alpha) if sol.alpha is not None else None,
        "beta": _cpair(sol.beta) if sol.beta is not None else None,
        "p_max": sol.p_max,
        "kbar0": _cpair(sol.kbar0),
        "lbar0": _cpair(sol.lbar0),
        "sigma_l_sq": sol.sigma_l_sq,
    }


def cmd_predict(args: argparse.Namespace) -> int:
    scalars = (args.kbar0, args.lbar0, args.sigma_l_sq)

    if any(v is not None for v in scalars):
        if args.state is not None or args.dist is not None:
            raise ValidationError(
                "scalar inputs (--kbar0/--lbar0/--sigma-l-sq) exclude --state/--dist"
            )
        if None in scalars or args.n is None or args.r is None:
            raise ValidationError(
                "scalar mode needs --kbar0, --lbar0, --sigma-l-sq, --n and --r"
            )
        kbar0 = _parse_complex(args.kbar0, "--kbar0")
        lbar0 = _parse_complex(args.lbar0, "--lbar0")
        sol = solve_summary(
            args.n, args.r, SummaryStats(kbar0, lbar0, 0.0, args.sigma_l_sq)
        )
        echo = {
            "n": args.n,
            "r": args.r,
            "kbar0": args.kbar0,
            "lbar0": args.lbar0,
            "sigma_l_sq": args.sigma_l_sq,
            "mode": "scalar",
        }
    else:
        problem = _build_problem(args)
        sol = solve(problem.state)
        echo = dict(problem.echo)
        echo["mode"] = "state"

    js = _parse_int_list(args.j, "--j")
    if not js:
        raise ValidationError("--j needs at least one branch index")
    if any(j < 0 for j in js):
        raise ValidationError("--j entries must be non-negative")
    plans = [optimal_time(sol, j) for j in js]
    method = plans[0].method

    doc = {
        "schema": PLAN_SCHEMA,
        "command": "predict",
        "config": echo,
        "solution": _solution_summary(sol),
        "method": method,
        "plans": [_plan_dict(p) for p in plans],
    }

    if args.format == "json":
        _emit(_json_text(doc), args.out)
    else:
        block = dict(echo)
        summary = _solution_summary(sol)
        for key in ("omega", "p_max", "sigma_l_sq"):
            block[key] = _fmt(summary[key])
        block["phi"] = "" if sol.phi is None else _fmt(sol.phi)
        for name in ("alpha", "beta", "kbar0", "lbar0"):
            pair = summary[name]
            block[f"{name}_re"] = "" if pair is None else _fmt(pair[0])
            block[f"{name}_im"] = "" if pair is None else _fmt(pair[1])
        block["method"] = method
        lines = _comment_block(PLAN_SCHEMA, block)
        lines.append(PREDICT_HEADER)
        for plan in plans:
            lines.append(
                ",".join(
                    [
                        str(plan.j),
                        _fmt(plan.t_real),
                        str(plan.t_step),
                        _fmt(plan.predicted_success),
                        plan.method,
                    ]
                )
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- compare --------------------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    problem = _build_problem(args)
    steps = _resolve_steps(args)
    tol = args.tol
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError("--tol must be a non-negative finite number")

    sol = solve(problem.state)
    rows = []
    max_amp_dev = 0.0
    max_p_dev = 0.0
    for t, current in enumerate(_trajectory(problem.state, steps)):
        rebuilt = reconstruct(sol, t)
        amp_dev = float(np.max(np.abs(rebuilt.amplitudes - current.amplitudes)))
        p_iter = success_probability(current)
        p_analytic = success_probability_analytic(sol, t)
        p_dev = abs(p_iter - p_analytic)
        max_amp_dev = max(max_amp_dev, amp_dev)
        max_p_dev = max(max_p_dev, p_dev)
        rows.append(
            {"t": t, "p_iter": p_iter, "p_analytic": p_analytic,
             "amp_dev": amp_dev, "p_dev": p_dev}
        )

    within = max_amp_dev <= tol and max_p_dev <= tol
    agreement = {
        "max_amplitude_deviation": max_amp_dev,
        "max_probability_deviation": max_p_dev,
        "tol": tol,
        "within_tol": within,
    }
    echo = dict(problem.echo)
    echo["steps"] = steps
    echo["tol"] = tol
    doc = {
        "schema": COMPARE_SCHEMA,
        "command": "compare",
        "config": echo,
        "series": rows,
        "plan": _plan_dict(optimal_time(sol)),
        "agreement": agreement,
    }

    if args.format == "json":
        _emit(_json_text(doc), args.out)
    else:
        lines = _comment_block(COMPARE_SCHEMA, echo)
        for key, value in sorted(agreement.items()):
            value = _fmt(value) if isinstance(value, float) else value
            lines.append(f"# {key}={value}")
        lines.append(COMPARE_HEADER)
        for row in rows:
            lines.append(
                ",".join(
                    [
                        str(row["t"]),
                        _fmt(row["p_iter"]),
                        _fmt(row["p_analytic"]),
                        _fmt(row["amp_dev"]),
                        _fmt(row["p_dev"]),
                    ]
                )
            )
        _emit("\n".join(lines) + "\n", args.out)

    if not within:
        print(
            f"engine disagreement: max amplitude deviation {max_amp_dev:.3e}, "
            f"max probability deviation {max_p_dev:.3e}, tol {tol:g}",
            file=sys.stderr,
        )
        return 1
    return 0


# -- sweep -----------------------------------------------------------------------------


def _sweep_cell(n: int, r: int, dist: str, seed: int, allow_large_r: bool) -> dict[str, Any]:
    row: dict[str, Any] = {
        "n": n, "r": r, "dist": dist, "seed": seed,
        "method": "", "t_exact": "", "t_step": "", "t_approx": "",
        "p_step": "", "p_max": "",
        "status": "ok", "error": "",
    }
    try:
        config = SearchConfig(n, tuple(range(r)), allow_large_r=allow_large_r)
        state = generate(DistributionSpec(kind=dist, config=config, seed=seed))
        sol = solve(state)
        row["p_max"] = sol.p_max
        plan = optimal_time(sol, 0)
        row["method"] = plan.method
        row["t_exact"] = plan.t_real
        row["t_step"] = plan.t_step
        row["p_step"] = plan.predicted_success
        # the small-r/n expansion exists only for a real ratio and lbar0 != 0
        if sol.real_ratio and sol.lbar0 != 0:
            row["t_approx"] = optimal_time_approx(sol)
    except GroverSimError as exc:
        row["status"] = "error"
        row["error"] = str(exc).replace(",", ";").replace("\n", " ")
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.n is None or args.r is None:
        raise ValidationError("--n and --r grids are required")
    ns = _parse_int_list(args.n, "--n")
    rs = _parse_int_list(args.r, "--r")
    dists = [d for d in args.dist.split(",") if d]
    for dist in dists:
        if dist not in KINDS:
            raise ValidationError(f"unknown distribution kind {dist!r}")
    seeds = _parse_seed_list(args.seeds)
    allow_large_r = args.allow_large_r

    rows = [
        _sweep_cell(n, r, dist, seed, allow_large_r)
        for n in ns
        for r in rs
        for dist in dists
        for seed in seeds
    ]

    echo = {
        "n": ",".join(map(str, ns)),
        "r": ",".join(map(str, rs)),
        "dist": ",".join(dists),
        "seeds": ",".join(map(str, seeds)),
        "rng": RNG_ALGORITHM,
        "allow_large_r": allow_large_r,
    }
    failed = sum(1 for row in rows if row["status"] != "ok")

    if args.format == "json":
        doc = {
            "schema": SWEEP_SCHEMA,
            "command": "sweep",
            "config": echo,
            "rows": rows,
            "failed_rows": failed,
        }
        _emit(_json_text(doc), args.out)
    else:
        lines = _comment_block(SWEEP_SCHEMA, echo)
        lines.append(f"# failed_rows={failed}")
        lines.append(SWEEP_HEADER)
        for row in rows:
            cells_out = []
            for key in SWEEP_HEADER.split(","):
                value = row[key]
                cells_out.append(_fmt(value) if isinstance(value, float) else str(value))
            lines.append(",".join(cells_out))
        _emit("\n".join(lines) + "\n", args.out)

    if failed:
        print(f"{failed} sweep row(s) failed", file=sys.stderr)
        return 1
    return 0


# -- parser ----------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like any invalid input: one 'error:' line, exit 2."""

    def error(self, message: str) -> NoReturn:
        raise ValidationError(message)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with default flag values")
    p.add_argument("--n", type=int, help="database size")
    p.add_argument("--r", type=int, help="marked count (marked set defaults to 0..r-1)")
    p.add_argument("--marked", help="comma-separated marked indices")
    p.add_argument("--dist", choices=KINDS, help="initial distribution kind")
    p.add_argument("--delta-index", type=int, dest="delta_index")
    p.add_argument("--gaussian-center", type=float, dest="gaussian_center")
    p.add_argument("--gaussian-spread", type=float, dest="gaussian_spread")
    p.add_argument("--state", help="path to a state JSON file")
    p.add_argument("--renormalize", action="store_true",
                   help="rescale an ingested state to unit norm")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p.add_argument("--allow-large-r", action="store_true", dest="allow_large_r",
                   help="admit r up to n-1 instead of n/2")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="groversim",
        description="Grover-search simulator for arbitrary initial amplitude "
        "distributions: exact iteration, closed-form prediction, planning.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sim = sub.add_parser("simulate", help="run the iterative engine, emit a series")
    _add_common_flags(p_sim)
    p_sim.add_argument("--steps", type=int, help="number of search steps")
    p_sim.add_argument("--sample", action="store_true",
                       help="draw one measurement outcome from the final state")
    p_sim.set_defaults(func=cmd_simulate)

    p_pre = sub.add_parser("predict", help="closed-form solution and measurement plan")
    _add_common_flags(p_pre)
    p_pre.add_argument("--j", default="0",
                       help="comma-separated branch indices (default 0)")
    p_pre.add_argument("--kbar0", help="initial marked average (scalar mode)")
    p_pre.add_argument("--lbar0", help="initial unmarked average (scalar mode)")
    p_pre.add_argument("--sigma-l-sq", type=float, dest="sigma_l_sq",
                       help="initial unmarked variance (scalar mode)")
    p_pre.set_defaults(func=cmd_predict)

    p_cmp = sub.add_parser("compare", help="cross-validate the two engines")
    _add_common_flags(p_cmp)
    p_cmp.add_argument("--steps", type=int, help="number of search steps")
    p_cmp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="agreement tolerance (default 1e-10)")
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep", help="planning quantities over a parameter grid")
    p_swp.add_argument("--config", help="JSON file with default flag values")
    p_swp.add_argument("--n", help="comma-separated database sizes")
    p_swp.add_argument("--r", help="comma-separated marked counts")
    p_swp.add_argument("--dist", default="uniform",
                       help="comma-separated distribution kinds (default uniform)")
    p_swp.add_argument("--seeds", default="0",
                       help="comma list or start:stop range (default 0)")
    p_swp.add_argument("--allow-large-r", action="store_true", dest="allow_large_r")
    p_swp.add_argument("--out", help="output path (default: stdout)")
    p_swp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_swp.set_defaults(func=cmd_sweep)

    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; with --config, parse again with the file's options first."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    at = argv.index(args.subcommand) + 1
    return parser.parse_args(argv[:at] + _config_tokens(args.config, args) + argv[at:])


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(parser, argv)
        return int(args.func(args))
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroverSimError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
