"""Command-line harness: simulate, predict, compare, sweep.

Outputs are machine-readable CSV or JSON with versioned schemas and no
timestamps, so identical invocations with identical seeds produce
byte-identical files.  Every subcommand builds one JSON document; its
CSV form is a ``# key=value`` comment block echoing the effective
configuration (JSON carries it under ``"config"``), and the document's
rows flattened under a header of their keys, a ``[re, im]`` pair over
two columns and a ``null`` as an empty cell.  Numbers are written with
17 significant digits ('.' decimal separator, no locale dependence),
which round-trips every double exactly.

A ``--config`` JSON file maps flag names (as in ``allow_large_r`` for
``--allow-large-r``) to values; it is read as ``--flag=value`` options
placed before the command line's, so it is checked exactly like flags
and the command line wins.

Exit codes: 0 success, 1 invariant/agreement failure, 2 usage or
validation error, or a statevector too large for memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Any, Callable, Iterable, Iterator, NoReturn, Optional

import numpy as np

from .analytic import (
    ClosedFormSolution,
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
    read_json,
    run,
    success_probability,
)
from .distributions import KINDS, RNG_ALGORITHM, DistributionSpec, generate, ingest
from .errors import GroverSimError, ValidationError

SERIES_SCHEMA = "groversim-series-v2"
COMPARE_SCHEMA = "groversim-compare-v2"
PLAN_SCHEMA = "groversim-plan-v2"
SWEEP_SCHEMA = "groversim-sweep-v2"

DEFAULT_TOL = 1e-10

# most cells one sweep accepts.  Every row is held until the table is
# written, and a row takes over 2^9 bytes (about 610, by tracemalloc over
# 10,000 cells at n=16), so a larger grid needs more than 2^64 bytes and
# could not finish on any host; the cap only refuses such grids up front.
MAX_SWEEP_CELLS = 2**55


def _cpair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _parse_complex(text: str, flag: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ValidationError(
            f"{flag} expects a real or complex number such as 0.5 or 0.5+0.1j"
        ) from exc


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


def _kind(text: str) -> str:
    if text not in KINDS:
        raise argparse.ArgumentTypeError(
            f"unknown distribution kind {text!r}; expected one of {KINDS}"
        )
    return text


def _list_of(item: Callable[[str], Any], name: str) -> Callable[[str], list]:
    """argparse type of a comma list ('0,3,7') of at least one ``item``."""

    def parse(text: str) -> list:
        values = [item(part) for part in text.split(",") if part != ""]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one entry")
        return values

    parse.__name__ = name  # argparse reports a ValueError as "invalid <name> value"
    return parse


_int_list = _list_of(int, "integer list")
_kind_list = _list_of(_kind, "kind list")


def _seed_list(text: str) -> list[int] | range:
    """argparse type of --seeds: a comma list of seeds ('0,1,5') or a
    start:stop range ('0:8', stop excluded) whose ends are both seeds.
    A range stays a ``range``, so its size is known before any seed is."""
    if ":" in text:
        start, stop = (_seed(end) for end in text.split(":", 1))
        if stop <= start:
            raise argparse.ArgumentTypeError("range must be non-empty")
        return range(start, stop)
    return _list_of(_seed, "seed list")(text)


# -- configuration file -----------------------------------------------------------


def _config_tokens(path: str, args: argparse.Namespace) -> list[str]:
    """The config file as ``--flag=value`` options of the parsed subcommand.

    Keys are the subcommand's option names with '_' for '-'.  A switch
    (an option whose parsed value is a bool) takes true or false; any
    other option a string or a number.  The ``=`` form keeps a value
    such as ``-0.5+0.1j`` from being read as an option.
    """
    doc = read_json(path, "config")
    if not isinstance(doc, dict):
        raise ValidationError("config file must hold a JSON object")
    known = vars(args)
    tokens = []
    for key, value in doc.items():
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


def _resolve_marked(marked: Optional[list[int]], r: Optional[int]) -> tuple[int, ...]:
    if marked is not None:
        if r is not None and len(marked) != r:
            raise ValidationError(
                f"--r {r} disagrees with --marked (got {len(marked)} indices)"
            )
        return tuple(marked)
    if r is None:
        raise ValidationError("either --marked or --r is required")
    return tuple(range(r))


def _build_problem(args: argparse.Namespace) -> tuple[AmplitudeState, dict[str, Any]]:
    """The initial state (from --state or generated) and its config echo."""
    if args.state is not None:
        if args.dist is not None:
            raise ValidationError("--state and --dist are mutually exclusive")
        state = ingest(args.state, renormalize=args.renormalize,
                       allow_large_r=args.allow_large_r)
        echo = {
            "n": state.config.n,
            "r": state.config.r,
            "marked": list(state.config.marked),
            "state": args.state,
            "seed": args.seed,
            "renormalize": args.renormalize,
            "allow_large_r": args.allow_large_r,
        }
        return state, echo

    n = args.n
    if n is None:
        raise ValidationError("--n is required unless --state is given")
    marked = _resolve_marked(args.marked, args.r)
    if args.dist is None:
        raise ValidationError("--dist is required unless --state is given")
    config = SearchConfig(n, marked, allow_large_r=args.allow_large_r)
    spec = DistributionSpec(
        kind=args.dist,
        config=config,
        seed=args.seed,
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
        "seed": args.seed,
        "rng": RNG_ALGORITHM,
        "allow_large_r": args.allow_large_r,
    }
    for key in ("delta_index", "gaussian_center", "gaussian_spread"):
        if getattr(args, key) is not None:
            echo[key] = getattr(args, key)
    return state, echo


# -- output ----------------------------------------------------------------------


def _cell(value: Any) -> str:
    """One CSV cell: a float at 17 significant digits, None as empty."""
    if isinstance(value, float):
        return format(float(value), ".17g")
    return "" if value is None else str(value)


def _flatten(row: dict[str, Any]) -> Iterator[tuple[str, Any]]:
    """(column, value) pairs of a JSON row: a ``[re, im]`` pair under
    ``key`` fills the two columns ``key_re`` and ``key_im``."""
    for key, value in row.items():
        if isinstance(value, list):
            yield f"{key}_re", value[0]
            yield f"{key}_im", value[1]
        else:
            yield key, value


def _write(
    args: argparse.Namespace,
    doc: dict[str, Any],
    rows: list[dict[str, Any]],
    comments: Iterable[tuple[str, Any]],
) -> None:
    """Write ``doc`` to --out (default stdout) in the --format.

    JSON is the document itself.  CSV is the schema line, one
    ``# key=value`` line per ``comments`` pair, a header of the first
    row's flattened keys and one line per row of ``rows`` (the
    document's own row dicts, never empty, all with the same keys).
    """
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [f"# {doc['schema']}"]
        lines += [f"# {key}={value}" for key, value in comments]
        lines.append(",".join(column for column, _ in _flatten(rows[0])))
        lines += [",".join([_cell(value) for _, value in _flatten(row)]) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


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
    state, echo = _build_problem(args)
    steps = _resolve_steps(args)

    series = []
    for t, current in enumerate(_trajectory(state, steps)):
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
    plan = dataclasses.asdict(optimal_time(solve(state)))

    echo["steps"] = steps
    doc: dict[str, Any] = {
        "schema": SERIES_SCHEMA,
        "command": "simulate",
        "config": echo,
        "series": series,
        "plan": plan,
    }
    comments = sorted(echo.items()) + [
        (f"plan_{key}", value) for key, value in sorted(plan.items())
    ]
    if args.sample:
        # current is the state after the last step
        rng = np.random.default_rng(args.seed)
        probs = np.abs(current.amplitudes) ** 2
        probs /= probs.sum()
        doc["sampled_index"] = int(rng.choice(current.config.n, p=probs))
        comments.append(("sampled_index", doc["sampled_index"]))

    _write(args, doc, series, comments)
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
        sol = solve_summary(args.n, args.r, kbar0, lbar0, args.sigma_l_sq)
        echo = {
            "n": args.n,
            "r": args.r,
            "kbar0": args.kbar0,
            "lbar0": args.lbar0,
            "sigma_l_sq": args.sigma_l_sq,
            "mode": "scalar",
        }
    else:
        state, echo = _build_problem(args)
        sol = solve(state)
        echo["mode"] = "state"

    plans = [dataclasses.asdict(optimal_time(sol, j)) for j in args.j]
    method = plans[0]["method"]
    summary = _solution_summary(sol)

    doc = {
        "schema": PLAN_SCHEMA,
        "command": "predict",
        "config": echo,
        "solution": summary,
        "method": method,
        "plans": plans,
    }
    # the solution scalars join the echo; a pair absent for a complex
    # ratio leaves both of its cells empty
    solution = {key: summary[key] for key in ("omega", "phi", "p_max", "sigma_l_sq")}
    for key in ("alpha", "beta", "kbar0", "lbar0"):
        solution[key] = summary[key] or [None, None]
    block = dict(echo, method=method)
    block.update((key, _cell(value)) for key, value in _flatten(solution))

    _write(args, doc, plans, sorted(block.items()))
    return 0


# -- compare --------------------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    state, echo = _build_problem(args)
    steps = _resolve_steps(args)
    tol = args.tol
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError("--tol must be a non-negative finite number")

    sol = solve(state)
    rows = []
    max_amp_dev = 0.0
    max_p_dev = 0.0
    diff_abs = np.empty(state.config.n)  # |rebuilt - iterate|, reused every step
    for t, current in enumerate(_trajectory(state, steps)):
        diff = reconstruct(sol, t).amplitudes  # a fresh array, free to overwrite
        np.subtract(diff, current.amplitudes, out=diff)
        amp_dev = float(np.abs(diff, out=diff_abs).max())
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
    echo["steps"] = steps
    echo["tol"] = tol
    doc = {
        "schema": COMPARE_SCHEMA,
        "command": "compare",
        "config": echo,
        "series": rows,
        "plan": dataclasses.asdict(optimal_time(sol)),
        "agreement": agreement,
    }
    comments = sorted(echo.items()) + [
        (key, _cell(value)) for key, value in sorted(agreement.items())
    ]
    _write(args, doc, rows, comments)

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
        "method": "", "t_exact": None, "t_step": None, "t_approx": None,
        "p_step": None, "p_max": None,
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
    seeds = args.seeds
    # len() of a range past sys.maxsize raises OverflowError
    n_seeds = seeds.stop - seeds.start if isinstance(seeds, range) else len(seeds)
    cells = len(args.n) * len(args.r) * len(args.dist) * n_seeds
    if cells > MAX_SWEEP_CELLS:
        raise ValidationError(
            f"sweep grid has {cells} cells, more than the cap of {MAX_SWEEP_CELLS}"
        )
    rows = [
        _sweep_cell(n, r, dist, seed, args.allow_large_r)
        for n in args.n
        for r in args.r
        for dist in args.dist
        for seed in seeds
    ]

    echo = {
        "n": ",".join(map(str, args.n)),
        "r": ",".join(map(str, args.r)),
        "dist": ",".join(args.dist),
        "seeds": ",".join(map(str, seeds)),
        "rng": RNG_ALGORITHM,
        "allow_large_r": args.allow_large_r,
    }
    failed = sum(1 for row in rows if row["status"] != "ok")
    doc = {
        "schema": SWEEP_SCHEMA,
        "command": "sweep",
        "config": echo,
        "rows": rows,
        "failed_rows": failed,
    }
    comments = sorted(echo.items()) + [("failed_rows", failed)]
    _write(args, doc, rows, comments)

    if failed:
        print(f"{failed} sweep row(s) failed", file=sys.stderr)
        return 1
    return 0


# -- parser ----------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like any invalid input: one 'error:' line, exit 2.

    Flags must be spelt out: with prefix matching, ``sweep --seed 3``
    would be read as ``--seeds 3``.  Subcommand parsers share the class,
    so they inherit this.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message: str) -> NoReturn:
        raise ValidationError(message)


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with default flag values")
    p.add_argument("--allow-large-r", action="store_true", dest="allow_large_r",
                   help="admit r up to n-1 instead of n/2")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    _add_io_flags(p)
    p.add_argument("--n", type=int, help="database size")
    p.add_argument("--r", type=int, help="marked count (marked set defaults to 0..r-1)")
    p.add_argument("--marked", type=_int_list, help="comma-separated marked indices")
    p.add_argument("--dist", choices=KINDS, help="initial distribution kind")
    p.add_argument("--delta-index", type=int, dest="delta_index")
    p.add_argument("--gaussian-center", type=float, dest="gaussian_center")
    p.add_argument("--gaussian-spread", type=float, dest="gaussian_spread")
    p.add_argument("--state", help="path to a state JSON file")
    p.add_argument("--renormalize", action="store_true",
                   help="rescale an ingested state to unit norm")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")


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
    p_pre.add_argument("--j", type=_int_list, default="0",
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
    _add_io_flags(p_swp)
    p_swp.add_argument("--n", type=_int_list, help="comma-separated database sizes")
    p_swp.add_argument("--r", type=_int_list, help="comma-separated marked counts")
    p_swp.add_argument("--dist", type=_kind_list, default="uniform",
                       help="comma-separated distribution kinds (default uniform)")
    p_swp.add_argument("--seeds", type=_seed_list, default="0",
                       help="comma list or start:stop range (default 0)")
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
    except MemoryError:  # numpy's, from stepping or rebuilding a statevector
        print(
            "error: out of memory; plan larger databases with scalar predict "
            "(--kbar0, --lbar0, --sigma-l-sq)",
            file=sys.stderr,
        )
        return 2
    except GroverSimError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
