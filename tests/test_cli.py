"""CLI subcommands: behaviour, schemas, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim import cli
from groversim.analytic import _rebuild_into, reconstruct, solve
from groversim.cli import MAX_SWEEP_CELLS, OUT_OF_MEMORY, build_parser, main
from groversim.core import SearchConfig, run, save_state, state_to_dict
from groversim.distributions import KINDS, DistributionSpec, generate, ingest


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return comments, body[0], body[1:]


def _refused(argv, line):
    """Exit 2, empty stdout, one stderr line: ``line``, or its start if it ends in '…'."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if line.endswith("…") and len(lines) == 1 and lines[0].startswith(line[:-1]):
        line = lines[0]
    assert (code, out.getvalue(), lines) == (2, "", [line])


# -- simulate -----------------------------------------------------------------


def test_simulate_n4_series(tmp_path):
    out = tmp_path / "series.csv"
    code = main(
        [
            "simulate", "--n", "4", "--marked", "0", "--dist", "uniform",
            "--steps", "3", "--out", str(out),
        ]
    )
    assert code == 0
    comments, header, rows = read_csv_rows(out)
    assert comments[0] == "# groversim-series-v2"
    assert header == "t,kbar_re,kbar_im,lbar_re,lbar_im,p,norm"
    assert len(rows) == 4
    p0 = float(rows[0].split(",")[5])
    p1 = float(rows[1].split(",")[5])
    assert p0 == pytest.approx(0.25, abs=1e-15)
    assert p1 == pytest.approx(1.0, abs=1e-12)


def test_simulate_series_length_from_state_file(tmp_path):
    state = generate(DistributionSpec("random-complex", SearchConfig(16, (0, 3)), seed=4))
    state_path = tmp_path / "in.json"
    save_state(state, state_path)
    out = tmp_path / "series.csv"
    code = main(
        ["simulate", "--state", str(state_path), "--steps", "100", "--out", str(out)]
    )
    assert code == 0
    _, _, rows = read_csv_rows(out)
    assert len(rows) == 101


def test_simulate_norm_column_stays_near_one(tmp_path):
    out = tmp_path / "series.csv"
    code = main(
        [
            "simulate", "--n", "64", "--r", "3", "--dist", "random-complex",
            "--seed", "9", "--steps", "1000", "--out", str(out),
        ]
    )
    assert code == 0
    _, _, rows = read_csv_rows(out)
    norms = np.array([float(r.split(",")[6]) for r in rows])
    assert np.max(np.abs(norms - 1.0)) <= 1e-10


def test_simulate_json_schema_and_plan(tmp_path):
    out = tmp_path / "run.json"
    code = main(
        [
            "simulate", "--n", "1024", "--r", "1", "--dist", "uniform",
            "--steps", "2", "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "groversim-series-v2"
    assert doc["config"]["n"] == 1024
    assert len(doc["series"]) == 3
    assert doc["plan"]["t_step"] == 25
    assert doc["plan"]["method"] == "closed-form"
    row = doc["series"][0]
    assert set(row) == {"t", "kbar", "lbar", "p", "norm"}


def test_simulate_sample_flag_is_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            [
                "simulate", "--n", "4", "--marked", "0", "--dist", "uniform",
                "--steps", "1", "--sample", "--seed", "11",
                "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0]["sampled_index"] == outs[1]["sampled_index"]
    # after one step at n=4 the marked state holds all the weight
    assert outs[0]["sampled_index"] == 0


# -- predict ------------------------------------------------------------------


def test_predict_uniform_1024(tmp_path):
    out = tmp_path / "plan.json"
    code = main(
        [
            "predict", "--n", "1024", "--r", "1", "--dist", "uniform",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "groversim-plan-v2"
    assert doc["method"] == "closed-form"
    plan = doc["plans"][0]
    assert plan["t_step"] == 25
    assert plan["predicted_success"] >= 0.999
    sol = doc["solution"]
    assert sol["p_max"] == pytest.approx(1.0, abs=1e-12)
    assert sol["omega"] == pytest.approx(2 * math.asin(1 / 32), abs=1e-15)


def test_predict_scalar_mode_huge_database(tmp_path):
    out = tmp_path / "plan.json"
    amp = repr(1.0 / math.sqrt(2**40))
    code = main(
        [
            "predict", "--n", str(2**40), "--r", "1",
            "--kbar0", amp, "--lbar0", amp, "--sigma-l-sq", "0",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    t_real = doc["plans"][0]["t_real"]
    assert math.isfinite(t_real)
    assert t_real == pytest.approx(math.pi / 4 * 2**20, rel=1e-4)


def test_predict_complex_ratio_uses_closed_form_complex(tmp_path):
    out = tmp_path / "plan.json"
    argv = [
        "predict", "--n", "64", "--r", "2",
        "--kbar0", "0.05j", "--lbar0", "0.1", "--sigma-l-sq", "0.001",
        "--format", "json", "--out", str(out),
    ]
    assert main(argv + ["--j", "0,5"]) == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "closed-form-complex"
    assert doc["solution"]["phi"] is None
    assert [p["j"] for p in doc["plans"]] == [0, 5]
    assert all(p["method"] == "closed-form-complex" for p in doc["plans"])
    w = 2 * math.asin(math.sqrt(2 / 64))
    t_reals = [p["t_real"] for p in doc["plans"]]
    assert t_reals[1] - t_reals[0] == pytest.approx(5 * math.pi / w, rel=1e-12)


def test_predict_scalar_complex_ratio_at_largest_size_is_fast(tmp_path):
    n = 2**53
    kbar0 = repr(0.5 * complex(math.cos(0.7), math.sin(0.7)))
    lbar0 = repr(complex(0.0, -0.5 / math.sqrt(n)))
    out = tmp_path / "plan.csv"
    started = time.perf_counter()
    code = main(
        [
            "predict", "--n", str(n), "--r", "1", f"--kbar0={kbar0}",
            f"--lbar0={lbar0}", f"--sigma-l-sq={0.5 / n!r}", "--out", str(out),
        ]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 1.0
    _, _, rows = read_csv_rows(out)
    assert rows[0].split(",")[4] == "closed-form-complex"


def test_gaussian_spread_past_the_square_range_is_the_flat_profile(capsys):
    argv = ["predict", "--n", "16", "--r", "1", "--j", "0,1"]
    assert main(argv + ["--dist", "gaussian-real", "--gaussian-spread", "1e300"]) == 0
    gaussian = capsys.readouterr()
    assert gaussian.err == ""
    assert main(argv + ["--dist", "uniform"]) == 0
    table = gaussian.out.splitlines()[-3:]
    assert table == capsys.readouterr().out.splitlines()[-3:]


def test_predict_multiple_branches(tmp_path):
    out = tmp_path / "plan.csv"
    code = main(
        [
            "predict", "--n", "64", "--r", "2", "--dist", "uniform",
            "--j", "0,1,2", "--out", str(out),
        ]
    )
    assert code == 0
    comments, header, rows = read_csv_rows(out)
    assert comments[0] == "# groversim-plan-v2"
    assert header == "j,t_real,t_step,predicted_success,method"
    assert len(rows) == 3
    t_reals = [float(r.split(",")[1]) for r in rows]
    w = 2 * math.asin(math.sqrt(2 / 64))
    assert t_reals[1] - t_reals[0] == pytest.approx(math.pi / w, rel=1e-12)


# -- compare ------------------------------------------------------------------


def test_compare_random_complex_agrees(tmp_path):
    out = tmp_path / "cmp.json"
    code = main(
        [
            "compare", "--n", "256", "--r", "5", "--dist", "random-complex",
            "--seed", "3", "--steps", "500", "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["agreement"]["within_tol"] is True
    assert doc["agreement"]["max_amplitude_deviation"] <= 1e-10
    assert len(doc["series"]) == 501


def test_compare_uniform_small_case_tight(tmp_path):
    out = tmp_path / "cmp.csv"
    code = main(
        [
            "compare", "--n", "4", "--marked", "0", "--dist", "uniform",
            "--steps", "10", "--out", str(out),
        ]
    )
    assert code == 0
    comments, header, rows = read_csv_rows(out)
    assert header == "t,p_iter,p_analytic,amp_dev,p_dev"
    max_dev = max(float(r.split(",")[3]) for r in rows)
    assert max_dev <= 1e-12


def test_compare_fails_on_unreachable_tolerance(tmp_path, capsys):
    code = main(
        [
            "compare", "--n", "64", "--r", "2", "--dist", "random-complex",
            "--seed", "1", "--steps", "200", "--tol", "1e-18",
            "--out", str(tmp_path / "cmp.csv"),
        ]
    )
    assert code == 1
    assert "disagreement" in capsys.readouterr().err


def _assert_amp_dev_matches_a_fresh_rebuild(out, state):
    rows = json.loads(out.read_text())["series"]
    sol = solve(state)
    for row in rows:
        t = row["t"]
        dev = np.abs(reconstruct(sol, t).amplitudes - run(state, t).amplitudes)
        assert row["amp_dev"].hex() == float(np.max(dev)).hex()


@pytest.mark.parametrize(
    "flag, marked", [(["--r", "3"], (0, 1, 2)), (["--marked", "3,77,400"], (3, 77, 400))]
)
@pytest.mark.parametrize("kind", KINDS)
def test_compare_amp_dev_is_the_deviation_of_a_fresh_rebuild(tmp_path, flag, marked, kind):
    out = tmp_path / "cmp.json"
    assert main(["compare", "--n", "512", *flag, "--dist", kind, "--seed", "4",
                 "--steps", "30", "--format", "json", "--out", str(out)]) == 0
    state = generate(DistributionSpec(kind, SearchConfig(512, marked), seed=4))
    _assert_amp_dev_matches_a_fresh_rebuild(out, state)


@pytest.mark.parametrize(
    "imag, dtype", [({}, np.float64), ({5: 1e-7}, np.complex128), ({0: 1e-7}, np.complex128)],
    ids=["all-minus-zero", "one-nonzero", "first-nonzero"],
)
def test_compare_rebuilds_an_ingested_state_on_its_own_route(
    monkeypatch, tmp_path, imag, dtype
):
    # a real start with every imaginary part -0.0 takes the real halves; a
    # single nonzero imaginary part, at any index, sends the whole run down
    # the complex route
    state = generate(DistributionSpec("random-real", SearchConfig(512, (0, 9)), seed=6))
    doc = state_to_dict(state)
    doc["amplitudes"] = [[re, imag.get(i, -0.0)] for i, (re, _) in enumerate(doc["amplitudes"])]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    routes = set()

    def spy(sol, t, dev, out):
        routes.add(dev.dtype)
        return _rebuild_into(sol, t, dev, out)

    monkeypatch.setattr("groversim.cli._rebuild_into", spy)
    out = tmp_path / "cmp.json"
    assert main(["compare", "--state", str(path), "--steps", "30", "--format", "json",
                 "--out", str(out)]) == 0
    assert routes == {np.dtype(dtype)}
    _assert_amp_dev_matches_a_fresh_rebuild(out, ingest(path))


@pytest.mark.parametrize(
    "scale, code", [(1 + 4e-9, 2), (1 + 0.99e-11, 0), (1 - 0.99e-11, 0)]
)
@pytest.mark.parametrize("kind", ["uniform", "random-complex"])
def test_compare_agrees_on_every_state_ingest_accepts(tmp_path, capsys, kind, scale, code):
    # off unit norm by d, the iterated P(t) runs about 2d above the
    # analytic one, so ingest's norm tolerance must sit well below --tol
    state = generate(DistributionSpec(kind, SearchConfig(64, (0, 5)), seed=3))
    doc = state_to_dict(state)
    doc["amplitudes"] = [[scale * re, scale * im] for re, im in doc["amplitudes"]]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    argv = ["compare", "--state", str(path), "--steps", "200"]
    assert main(argv + ["--out", str(tmp_path / "cmp.csv")]) == code
    if code:
        assert capsys.readouterr().err.startswith("error: state norm")


def test_compare_corrupted_state_exits_2(tmp_path):
    state = generate(DistributionSpec("uniform", SearchConfig(8, (0,))))
    doc = state_to_dict(state)
    doc["amplitudes"] = [[0.9 * re, 0.9 * im] for re, im in doc["amplitudes"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = ["compare", "--state", str(bad), "--steps", "5"]
    _refused(argv, "error: state norm 0.9…")
    # the renormalize flag rescues it
    assert main(argv + ["--renormalize", "--out", str(tmp_path / "ok.csv")]) == 0


# -- sweep --------------------------------------------------------------------


def test_sweep_grid_rows_and_header(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--n", "64,256", "--r", "1,2", "--dist",
            "uniform,random-real", "--seeds", "0:2", "--out", str(out),
        ]
    )
    assert code == 0
    comments, header, rows = read_csv_rows(out)
    assert comments[0] == "# groversim-sweep-v2"
    assert header == (
        "n,r,dist,seed,method,t_exact,t_step,t_approx,p_step,p_max,status,error"
    )
    assert len(rows) == 2 * 2 * 2 * 2
    for row in rows:
        assert row.split(",")[10] == "ok"


def test_sweep_uniform_row_values(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        [
            "sweep", "--n", "256,1024", "--r", "1", "--dist", "uniform",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    for row in doc["rows"]:
        assert row["method"] == "closed-form"
        assert row["p_max"] == pytest.approx(1.0, abs=1e-12)
        assert row["p_step"] >= 0.99
        assert abs(row["t_exact"] - row["t_approx"]) < 0.01
    assert doc["rows"][1]["t_step"] == 25


def test_sweep_random_complex_fills_closed_form_columns(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        [
            "sweep", "--n", "64", "--r", "2", "--dist", "random-complex",
            "--seeds", "0", "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["method"] == "closed-form-complex"
    assert abs(row["t_exact"] - row["t_step"]) <= 1.0
    assert row["t_approx"] is None
    assert row["p_step"] <= row["p_max"] + 1e-12


def test_sweep_records_partial_failures(tmp_path):
    out = tmp_path / "sweep.csv"
    # r = n/2 + 1 is rejected without allow-large-r: that row fails
    code = main(
        ["sweep", "--n", "8", "--r", "1,5", "--dist", "uniform", "--out", str(out)]
    )
    assert code == 1
    _, _, rows = read_csv_rows(out)
    statuses = [r.split(",")[10] for r in rows]
    assert statuses.count("ok") == 1
    assert statuses.count("error") == 1
    # absent numbers: empty CSV cells, JSON null
    assert rows[1].split(",")[5:10] == [""] * 5
    json_out = tmp_path / "sweep.json"
    assert main(["sweep", "--n", "8", "--r", "1,5", "--dist", "uniform",
                 "--format", "json", "--out", str(json_out)]) == 1
    failed = json.loads(json_out.read_text())["rows"][1]
    assert [failed[k] for k in ("t_exact", "t_step", "t_approx", "p_step", "p_max")] == [None] * 5
    code = main(
        [
            "sweep", "--n", "8", "--r", "1,5", "--dist", "uniform",
            "--allow-large-r", "--out", str(out),
        ]
    )
    assert code == 0


def test_sweep_writes_an_unallocatable_cell_as_an_error_row(tmp_path):
    # 2**44 amplitudes fail to allocate; 10**20 are past numpy's array limit
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--n", f"16,{2**44},{10**20}", "--r", "1",
                 "--dist", "uniform,gaussian-real", "--format", "json", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())["rows"]
    assert [row["status"] for row in rows[:2]] == ["ok", "ok"]
    for row in rows[2:]:
        assert (row["status"], row["error"]) == ("error", OUT_OF_MEMORY.replace(",", ";"))


def test_sweep_writes_a_marked_count_out_of_range_as_an_error_row(capsys):
    assert main(["sweep", "--n", "16", "--r", f"0,16,{10**18}", "--format", "json"]) == 1
    errors = [row["error"] for row in json.loads(capsys.readouterr().out)["rows"]]
    assert errors == [f"marked count must satisfy 1 <= r <= n-1; got r={r}"
                      for r in (0, 16, 10**18)]
    # a count past n/2 is refused before its index list is built
    assert main(["sweep", "--n", str(10**12), "--r", str(6 * 10**11), "--format", "json"]) == 1
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert row["error"] == ("marked count r=600000000000 exceeds n/2=5e+11; "
                            "pass --allow-large-r to override")


def test_sweep_writes_a_cell_that_runs_out_of_memory_in_solve_as_an_error_row(
    monkeypatch, tmp_path, capsys
):
    # stands in for numpy failing to allocate the deviations of one cell
    def solve_or_fail(state):
        if state.config.n == 32:
            raise MemoryError("platform-worded text")
        return solve(state)

    monkeypatch.setattr("groversim.cli.solve", solve_or_fail)
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--n", "16,32,64", "--r", "1", "--format", "json",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "1 sweep row(s) failed\n"
    rows = json.loads(out.read_text())["rows"]
    assert [row["status"] for row in rows] == ["ok", "error", "ok"]
    assert rows[1]["error"] == OUT_OF_MEMORY.replace(",", ";")


@pytest.mark.parametrize(
    "argv, kernel",
    [
        (["simulate", "--n", "64", "--r", "1", "--dist", "uniform", "--steps", "3"], "run"),
        # the real route of a real start, and the complex route
        *[(["compare", "--n", "64", "--r", "1", "--dist", kind, "--steps", "3"],
           "_rebuild_into") for kind in ("uniform", "random-complex")],
    ],
)
def test_memory_error_after_generate_exits_2(monkeypatch, argv, kernel):
    # stands in for numpy failing to allocate while stepping or rebuilding
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"groversim.cli.{kernel}", out_of_memory)
    _refused(argv, f"error: {OUT_OF_MEMORY}")


def test_system_exit_inside_a_command_propagates(monkeypatch):
    # as a signal handler's sys.exit would, while the command runs
    monkeypatch.setattr("groversim.cli.run", lambda *args: sys.exit(143))
    with pytest.raises(SystemExit, match="143"):
        main(["simulate", "--n", "16", "--r", "1", "--dist", "uniform", "--steps", "3"])


# -- input rules every source shares ----------------------------------------------


def _state_file(tmp_path, n, marked):
    path = tmp_path / "state.json"
    save_state(generate(DistributionSpec("uniform", SearchConfig(n, marked))), path)
    return path


@pytest.mark.parametrize("source", ["generated", "state", "scalar", "sweep"])
def test_marked_count_past_half_needs_allow_large_r_for_every_source(
    tmp_path, capsys, source
):
    def argv_for(r):
        if source == "generated":
            return ["predict", "--n", "16", "--r", str(r), "--dist", "uniform"]
        if source == "state":
            return ["predict", "--state", str(_state_file(tmp_path, 16, tuple(range(r))))]
        if source == "scalar":
            return ["predict", "--n", "16", "--r", str(r), "--kbar0", "0.2", "--lbar0", "0.1",
                    "--sigma-l-sq", "0"]
        return ["sweep", "--n", "16", "--r", str(r), "--format", "json"]

    expected = "marked count r=9 exceeds n/2=8; pass --allow-large-r to override"
    argv = argv_for(9)
    if source == "sweep":
        # a cell that breaks a rule is an error row
        assert main(argv) == 1
        captured = capsys.readouterr()
        row = json.loads(captured.out)["rows"][0]
        assert (row["status"], row["error"]) == ("error", expected)
    else:
        _refused(argv, f"error: {expected}")
    assert main(argv + ["--allow-large-r"]) == 0
    # r = n/2 itself needs no override
    assert main(argv_for(8)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "flag, value, argv",
    [
        ("--lbar0", "-1e-3", ["predict", "--n", "64", "--r", "2", "--kbar0", "0.05",
                              "--sigma-l-sq", "0.001"]),
        ("--kbar0", "-0.05+0.01j", ["predict", "--n", "64", "--r", "2", "--lbar0", "0.1",
                                    "--sigma-l-sq", "0.001"]),
        ("--kbar0", "-.05", ["predict", "--n", "64", "--r", "2", "--lbar0", "0.1",
                             "--sigma-l-sq", "0.001"]),
        ("--gaussian-center", "-1e1", ["predict", "--n", "64", "--r", "2",
                                       "--dist", "gaussian-real"]),
    ],
)
def test_negative_numbers_are_values_not_flags(capsys, flag, value, argv):
    # argparse reads the token through this private attribute, which the
    # parser overrides; a Python upgrade that drops it fails here
    assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")
    assert build_parser()._negative_number_matcher.match(value)
    assert main(argv + [f"{flag}={value}"]) == 0
    with_equals = capsys.readouterr()
    assert main(argv + [flag, value]) == 0
    assert capsys.readouterr() == with_equals
    # a flag is still a flag, not a value
    _refused(argv + [flag, "--j"], f"error: argument {flag}: expected one argument")


@pytest.mark.parametrize(
    "params, err",
    [
        # both squares overflow: the profile would read inf/inf = nan
        (["--gaussian-center", "1e300", "--gaussian-spread", "1e300"],
         "error: gaussian center 1e+300 and gaussian spread 1e+300 are both too "
         "large: (index - center)**2 and 4*spread**2 overflow"),
        (["--gaussian-center=-2e154", "--gaussian-spread", "7e153"],
         "error: gaussian center -2e+154 and gaussian spread 7e+153 are both too "
         "large: (index - center)**2 and 4*spread**2 overflow"),
        # the center's square alone: every entry is exp(-inf) = 0
        (["--gaussian-center", "1e300"],
         "error: sampled a zero vector for kind 'gaussian-real'; "
         "check the distribution parameters"),
        (["--gaussian-center", "1e300", "--gaussian-spread", "1e153"],
         "error: sampled a zero vector for kind 'gaussian-real'; "
         "check the distribution parameters"),
        # the spread's square alone: every entry is exp(-0) = 1, as with the
        # default center (test_gaussian_spread_past_the_square_range_...)
        (["--gaussian-center", "1e154", "--gaussian-spread", "1e300"], None),
    ],
)
def test_gaussian_squares_that_overflow(capsys, params, err):
    argv = ["predict", "--n", "16", "--r", "1", "--j", "0,1"]
    if err is not None:
        _refused(argv + ["--dist", "gaussian-real", *params], err)
        return
    code = main(argv + ["--dist", "gaussian-real", *params])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert main(argv + ["--dist", "uniform"]) == 0
    assert captured.out.splitlines()[-3:] == capsys.readouterr().out.splitlines()[-3:]


def _ignored_flag_cases():
    """(argv that runs, extra flags it would ignore, the error); STATE
    stands for a valid state file."""
    kind_flags = [["--delta-index", "3"], ["--gaussian-center", "2"],
                  ["--gaussian-spread", "2"]]
    for cmd in ("simulate", "compare", "predict"):
        steps = [] if cmd == "predict" else ["--steps", "2"]
        # a state file fixes n, the marked set and the amplitudes
        for extra in [["--n", "16"], ["--r", "1"], ["--marked", "0"],
                      ["--dist", "uniform"], *kind_flags]:
            yield ([cmd, "--state", "STATE", *steps], extra,
                   f"{extra[0]} does not apply with --state")
        generated = [cmd, "--n", "16", "--r", "1", *steps]
        yield (generated + ["--dist", "uniform"], ["--renormalize"],
               "--renormalize does not apply without --state")
        yield (generated + ["--dist", "uniform"], ["--delta-index", "3"],
               "delta index applies only to kind 'delta', not 'uniform'")
        yield (generated + ["--dist", "delta"], ["--gaussian-spread", "2"],
               "gaussian spread applies only to kind 'gaussian-real', not 'delta'")
    # scalar inputs fix everything a state would
    scalar = ["predict", "--n", "16", "--r", "1", "--kbar0", "0.25", "--lbar0", "0.25",
              "--sigma-l-sq", "0"]
    for extra in [["--marked", "0"], ["--renormalize"], ["--dist", "uniform"],
                  ["--state", "STATE"], *kind_flags]:
        yield scalar, extra, (f"{extra[0]} does not apply to scalar inputs "
                              "(--kbar0/--lbar0/--sigma-l-sq)")


@pytest.mark.parametrize(
    "argv, extra, expected",
    [pytest.param(*case, id=f"{case[0][0]}: {case[2].split(' (')[0]}")
     for case in _ignored_flag_cases()],
)
def test_flags_the_source_ignores_are_refused(tmp_path, capsys, argv, extra, expected):
    path = str(_state_file(tmp_path, 16, (0,)))
    argv, extra = ([path if token == "STATE" else token for token in tokens]
                   for tokens in (argv, extra))
    assert main(argv) == 0
    capsys.readouterr()
    _refused(argv + extra, f"error: {expected}")


# -- CSV and JSON ---------------------------------------------------------------


def _flatten(row):
    """A JSON row as (column, CSV cell) pairs: a [re, im] pair over two
    columns, floats at 17 significant digits, null as an empty cell."""
    for key, value in row.items():
        if isinstance(value, list):
            yield from _flatten({f"{key}_re": value[0], f"{key}_im": value[1]})
        elif isinstance(value, float):
            yield key, format(value, ".17g")
        else:
            yield key, "" if value is None else str(value)


@pytest.mark.parametrize(
    "argv, key",
    [
        (["simulate", "--n", "32", "--r", "3", "--dist", "random-complex",
          "--seed", "2", "--steps", "12", "--sample"], "series"),
        (["compare", "--n", "64", "--marked", "1,9", "--dist", "gaussian-real",
          "--steps", "12"], "series"),
        (["predict", "--n", "64", "--r", "2", "--kbar0", "0.05j", "--lbar0", "0.1",
          "--sigma-l-sq", "0.001", "--j", "0,1,4"], "plans"),
        # complex-ratio cells (t_approx null) and failed cells (r = 5 > 8/2)
        (["sweep", "--n", "8,64", "--r", "1,5", "--dist", "uniform,random-complex",
          "--seeds", "0:2"], "rows"),
    ],
)
def test_csv_rows_are_the_json_rows_flattened(tmp_path, argv, key):
    csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
    code = main(argv + ["--out", str(csv_out)])
    assert main(argv + ["--format", "json", "--out", str(json_out)]) == code
    _, header, lines = read_csv_rows(csv_out)
    rows = json.loads(json_out.read_text())[key]
    assert len(lines) == len(rows) > 1
    for line, row in zip(lines, rows):
        columns, cells = zip(*_flatten(row))
        assert ",".join(columns) == header
        assert line.split(",") == list(cells)
    if argv[0] == "sweep":
        assert code == 1
        assert any(row["t_approx"] is None and row["status"] == "ok" for row in rows)
        assert any(row["status"] == "error" for row in rows)


# -- config file and determinism ------------------------------------------------


def test_config_file_defaults_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "r": 1, "dist": "uniform", "steps": 2}))
    out = tmp_path / "a.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = read_csv_rows(out)
    assert len(rows) == 3
    # flags win over the file
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--steps", "5",
                 "--out", str(out2)]) == 0
    _, _, rows2 = read_csv_rows(out2)
    assert len(rows2) == 6


def test_config_file_matches_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 64, "r": 40, "allow_large_r": True,
                               "kbar0": "-0.05+0.01j", "lbar0": -0.08,
                               "sigma_l_sq": 0.001, "j": "0,2"}))
    flags = ["--n", "64", "--r", "40", "--allow-large-r", "--kbar0=-0.05+0.01j",
             "--lbar0=-0.08", "--sigma-l-sq", "0.001", "--j", "0,2"]
    assert main(["predict", *flags]) == 0
    via_flags = capsys.readouterr().out
    assert main(["predict", "--config", str(cfg)]) == 0
    via_file = capsys.readouterr().out
    assert via_file == via_flags
    # a false switch leaves it unset: r = 40 > n/2 is refused again
    cfg.write_text(json.dumps({"n": 64, "r": 40, "dist": "uniform",
                               "allow_large_r": False}))
    assert main(["predict", "--config", str(cfg)]) == 2


# each exits 2 however it is combined with otherwise valid settings
BAD_CONFIGS = [
    {"stepz": 4},
    {"steps": "abc"},
    {"n": 16.5},
    {"format": "xml"},
    {"n": None},
    {"marked": [0]},
    {"sample": "yes"},
    {"config": "other.json"},
]

# each exits 2 when passed as --state, rescaling or not
_GOOD_STATE = {"n": 4, "marked": [0], "amplitudes": [[0.5, 0.0]] * 4, "step": 0}
# a JSON true among the amplitudes, a unit-norm state if it were read as 1
_BOOL_STATE = json.dumps(dict(_GOOD_STATE, amplitudes=[[True, 0]] + [[0, 0]] * 3)).encode()
BAD_STATE_FILES = [
    b"{not json",
    b"\xff\xfe not utf-8",
    b"[" * 100_000 + b"]" * 100_000,
    json.dumps(dict(_GOOD_STATE, amplitudes=[[0.5, 0.0]] * 3)).encode(),
    json.dumps(dict(_GOOD_STATE, amplitudes=[["0.5", 0.0]] * 4)).encode(),
    json.dumps(dict(_GOOD_STATE, amplitudes=[[0.5, None]] * 4)).encode(),
    json.dumps(dict(_GOOD_STATE, amplitudes=[[0.5, 0.0]] * 3 + [None])).encode(),
    json.dumps(dict(_GOOD_STATE, amplitudes=[[[0.5, 0.0], 0.0]] * 4)).encode(),
    json.dumps(dict(_GOOD_STATE, amplitudes=[[10**400, 0]] * 4)).encode(),
    # more digits than Python converts by default
    b'{"n": 4, "marked": [0], "amplitudes": [[1' + b"0" * 5000
    + b', 0], [0, 0], [0, 0], [0, 0]], "step": 0}',
    json.dumps(dict(_GOOD_STATE, amplitudes=[[math.nan, 0.0]] * 4)).encode(),
    json.dumps(dict(_GOOD_STATE, amplitudes=[[0.0, 0.0]] * 4)).encode(),
    json.dumps(dict(_GOOD_STATE, marked=[4])).encode(),
    # JSON booleans, which would otherwise read as the integers 1 and 0
    json.dumps(dict(_GOOD_STATE, marked=[True])).encode(),
    json.dumps(dict(_GOOD_STATE, step=True)).encode(),
    _BOOL_STATE,
    # finite amplitudes whose norm overflows a double
    json.dumps(dict(_GOOD_STATE, amplitudes=[[1e300, 0.0]] * 4)).encode(),
]

_MARKED_COUNT = "error: marked count must satisfy 1 <= r <= n-1, got r="
_PREDICT = ["predict", "--n", "16", "--r", "1", "--dist", "uniform"]
_SCALAR = ["predict", "--n", "64", "--r", "2", "--sigma-l-sq", "0.001"]

# (argv, files, the stderr line): each file is written under its name, and
# an argv token ending in .json is a path in the same directory
REFUSALS = [
    (["simulate", "--n", "4", "--marked", "0", "--dist", "uniform"], {},
     "error: --steps is required"),
    (["simulate", "--n", "4", "--dist", "uniform", "--steps", "1"], {},
     "error: either --marked or --r is required"),
    (["simulate", "--nope"], {}, "error: unrecognized arguments: --nope"),
    (["simulate", "--n", "4", "--r", "2", "--marked", "0", "--dist", "uniform", "--steps", "1"],
     {}, "error: --r 2 disagrees with --marked (got 1 indices)"),
    (["simulate", "--n", "1", "--r", "1", "--dist", "uniform", "--steps", "1"], {},
     "error: database size must be an integer >= 2, got 1"),
    # --r is checked as a count, before any index list is built
    *[([cmd, "--n", "16", "--r", str(r), "--dist", "uniform", "--steps", "1"], {},
       f"{_MARKED_COUNT}{r}") for cmd in ("simulate", "compare") for r in (0, 16, 10**5, 10**18)],
    *[(["predict", "--n", "16", "--r", r, "--kbar0", "0.1", "--lbar0", "0.1", "--sigma-l-sq",
        "0"], {}, f"{_MARKED_COUNT}{r}") for r in ("0", "16")],
    (_SCALAR + ["--kbar0", "zzz", "--lbar0", "0.1"], {},
     "error: --kbar0 expects a real or complex number such as 0.5 or 0.5+0.1j"),
    (_SCALAR + ["--kbar0", "0.1"], {},
     "error: scalar mode needs --kbar0, --lbar0, --sigma-l-sq, --n and --r"),
    # non-finite averages are invalid input, not an invariant failure
    *[(_SCALAR + ["--kbar0", k, "--lbar0", l], {},
       f"error: initial averages must be finite, got {complex(k)!r}, {complex(l)!r}")
      for bad in ("nan", "nanj") for k, l in [(bad, "0.1"), ("0.1", bad)]],
    # a statevector past numpy's array limit reports out of memory
    *[(["predict", "--n", str(n), "--r", "1", "--dist", dist], {}, f"error: {OUT_OF_MEMORY}")
      for n in (10**20, 10**400) for dist in ("uniform", "gaussian-real")],
    # --j: a non-negative integer, at most 2**53 (past it j is not a double exactly)
    (_PREDICT + ["--j", "-1"], {}, "error: branch index must be a non-negative integer, got -1"),
    (_PREDICT + ["--j", ","], {}, "error: argument --j: needs at least one entry"),
    *[(_PREDICT + ["--j", str(j)], {}, "error: branch index must be at most 2**53")
      for j in (2**53 + 1, 10**330)],
    (["predict", "--state", "nope.json"], {}, "error: cannot read state file: …"),
    (["simulate", "--state", "nope.json", "--steps", "1"], {},
     "error: cannot read state file: …"),
    (["simulate", "--state", "s.json", "--steps", "1", "--sample", "--seed", "-1"], {},
     "error: argument --seed: must be an unsigned 64-bit integer, got '-1'"),
    (["predict", "--state", "s.json"], {"s.json": _BOOL_STATE},
     "error: 'amplitudes' must be a list of 4 [re, im] number pairs"),
    # the gaussian parameters do not change how an n is refused, even where
    # (n-1) - center or its square would overflow a float
    *[(["predict", "--n", str(n), "--r", "1", "--dist", "gaussian-real",
        "--gaussian-center", center, "--gaussian-spread", "1e300"], {}, f"error: {OUT_OF_MEMORY}")
      for n in (10**20, 10**400) for center in ("0", "1e300")],
    # scalar n is at most 2**53; 10**400 does not convert to a float at all
    *[(["predict", "--n", str(n), "--r", "1", "--kbar0", "0", "--lbar0", "0", "--sigma-l-sq",
        "0"], {}, "error: database size must be at most 2**53 in scalar mode")
      for n in (2**53 + 1, 2**1024, 10**400)],
    *[(["predict", "--n", "16", "--r", "1", "--sigma-l-sq", "0", f"--kbar0={k}", f"--lbar0={l}"],
       {}, "error: summary statistics are inconsistent with a normalized state "
       "(implied marked variance -inf < 0)")
      for avg in ("1e200", "1e200j", "1e308+1e308j", "infj") for k, l in [(avg, "0"), ("0", avg)]],
    *[([cmd, "--n", "16", "--r", "1", "--dist", "uniform", "--steps", "-3"], {},
       "error: --steps must be non-negative") for cmd in ("simulate", "compare")],
    *[(["compare", "--n", "16", "--r", "1", "--dist", "uniform", "--steps", "3", "--tol", tol],
       {}, "error: --tol must be a non-negative finite number") for tol in ("-1", "nan", "inf")],
    *[(["sweep", "--n", "16", "--r", "1", f"--seeds={seeds}"], {},
       f"error: argument --seeds: must be an unsigned 64-bit integer, got {bad!r}")
      for seeds, bad in [("-1:1", "-1"), ("0,-2", "-2"), (str(2**64), str(2**64))]],
    # at odd n an index sits on the center, where the profile would read
    # 0/0 = nan; at even n every entry would be an exact 0
    *[(["predict", "--n", str(n), "--r", "1", "--dist", "gaussian-real", "--gaussian-spread",
        "1e-200"], {}, "error: gaussian spread 1e-200 is too small: 4*spread**2 underflows to 0")
      for n in (16, 17)],
    *[(["predict", "--config", "cfg.json"], {"cfg.json": content},
       "error: malformed config file: …")
      for content in (b"\xff\xfe not utf-8", b"[" * 100_000 + b"]" * 100_000,
                      b'{"n": 1' + b"0" * 5000 + b"}")],
    # the cap by value: a grid past twice the cap, so no cap up to that runs a cell
    (["sweep", "--n", "16", "--r", "1", f"--seeds=0:{2**56 + 1}"], {},
     f"error: sweep grid has {2**56 + 1} cells, more than the cap of {2**55}"),
    # r <= n/2 is checked before the marked list 0..r-1 is built
    (["predict", "--n", str(10**12), "--r", str(6 * 10**11), "--dist", "uniform"], {},
     "error: marked count r=600000000000 exceeds n/2=5e+11; pass --allow-large-r to override"),
]


@pytest.mark.parametrize("argv, files, line", REFUSALS)
def test_refused_input_exits_2_with_one_line(tmp_path, argv, files, line):
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    _refused([str(tmp_path / t) if t.endswith(".json") else t for t in argv], line)


@st.composite
def invalid_invocations(draw):
    """(argv, config dict or None, state file bytes or None, expected start
    of the error line) for one invalid call of any subcommand."""
    cmd = draw(st.sampled_from(["simulate", "compare", "predict", "sweep"]))
    n = draw(st.integers(4, 64))
    seed_flag = "--seeds" if cmd == "sweep" else "--seed"
    flags = {"--n": n, "--r": 1, "--dist": "uniform", seed_flag: 0}
    if cmd in ("simulate", "compare"):
        flags["--steps"] = 2
    if cmd == "sweep":
        # a cell that fails (n < 2, r = 0, ...) is an error row, not invalid input
        cases = ["empty", "kind", "seed", "prefix", "config", "grid"]
    else:
        cases = ["n", "r0", "large-r", "marked", "empty", "seed", "prefix", "state",
                 "config", "memory", "gaussian"]
    case = draw(st.sampled_from(cases))
    config = state = None
    expected = "error: "
    if case == "n":
        flags["--n"] = draw(st.integers(-3, 1))
    elif case == "r0":
        flags["--r"] = 0
    elif case == "large-r":
        flags["--r"] = draw(st.integers(n // 2 + 1, n))
    elif case == "marked":
        del flags["--r"]
        index = draw(st.one_of(st.integers(-5, -1), st.integers(n, n + 5)))
        flags["--marked"] = draw(st.sampled_from([f"{index}", f"0,{index}"]))
    elif case == "empty":
        # every comma-list flag needs at least one entry
        if cmd == "sweep":
            key = draw(st.sampled_from(["--n", "--r", "--dist", "--seeds"]))
        else:
            key = draw(st.sampled_from(["--marked", "--j"] if cmd == "predict"
                                       else ["--marked"]))
            if key == "--marked":
                del flags["--r"]
        flags[key] = draw(st.sampled_from(["", ",", ",,"]))
        expected = f"error: argument {key}: "
    elif case == "memory":
        # fails before allocating anything
        flags["--n"] = 2**44
        expected = f"error: {OUT_OF_MEMORY}"
    elif case == "gaussian":
        flags["--dist"] = "gaussian-real"
        key, value, expected = draw(st.sampled_from([
            ("--gaussian-center", "nan", "error: gaussian center must be finite"),
            ("--gaussian-center", "inf", "error: gaussian center must be finite"),
            ("--gaussian-center", "-inf", "error: gaussian center must be finite"),
            ("--gaussian-spread", "inf", "error: gaussian spread must be finite"),
            # the profile overflows, or underflows to zero everywhere
            ("--gaussian-center", "1e300", "error: sampled a zero vector"),
            ("--gaussian-spread", "1e-200", "error: gaussian spread 1e-200 is too small"),
        ]))
        flags[key] = value
    elif case == "grid":
        stop = draw(st.just(2**64 - 1) | st.integers(MAX_SWEEP_CELLS + 1, 2**64 - 1))
        flags["--seeds"] = f"0:{stop}"
        expected = f"error: sweep grid has {stop} cells"
    elif case == "kind":
        flags["--dist"] = draw(st.sampled_from(["gaussian", "Uniform", "uniform,deltas"]))
        expected = "error: argument --dist: "
    elif case == "seed":
        flags[seed_flag] = draw(st.integers(-(2**70), -1) | st.integers(2**64, 2**70))
    elif case == "prefix":
        # an unambiguous prefix of a real flag: --see, --seed (for --seeds),
        # --dis or --step
        key = draw(st.sampled_from(
            sorted(set(flags) & {"--seed", "--seeds", "--dist", "--steps"})
        ))
        flags[key[:-1]] = flags.pop(key)
    elif case == "state":
        # the flags a state file replaces would be refused before it is read
        for key in ("--n", "--r", "--dist"):
            del flags[key]
        state = draw(st.sampled_from(BAD_STATE_FILES))
        if draw(st.booleans()):
            flags["--renormalize"] = True
    else:
        config = {key[2:]: value for key, value in flags.items()}
        config.update(draw(st.sampled_from(BAD_CONFIGS)))
        flags = {}
    argv = [cmd] + [
        key if value is True else f"{key}={value}" for key, value in flags.items()
    ]
    return argv, config, state, expected


@settings(max_examples=150, deadline=None)
@given(invalid_invocations())
def test_every_subcommand_sends_invalid_input_to_exit_2(tmp_path_factory, invocation):
    argv, config, state, expected = invocation
    if config is not None:
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    if state is not None:
        path = tmp_path_factory.mktemp("state") / "state.json"
        path.write_bytes(state)
        argv = argv + ["--state", str(path)]
    _refused(argv, expected + "…")


def test_effective_config_echoed_in_outputs(tmp_path):
    out = tmp_path / "series.csv"
    main(["simulate", "--n", "8", "--r", "2", "--dist", "random-real",
          "--seed", "5", "--steps", "1", "--out", str(out)])
    comments, _, _ = read_csv_rows(out)
    text = "\n".join(comments)
    assert "# n=8" in text
    assert "# seed=5" in text
    assert "# dist=random-real" in text
    assert "# rng=numpy-pcg64" in text


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "32", "--r", "2", "--dist", "random-complex",
         "--seed", "7", "--steps", "40"],
        ["simulate", "--n", "32", "--r", "2", "--dist", "random-complex",
         "--seed", "7", "--steps", "40", "--format", "json"],
        ["predict", "--n", "512", "--r", "3", "--dist", "random-real",
         "--seed", "1", "--format", "json"],
        ["sweep", "--n", "64,128", "--r", "1", "--dist", "random-real",
         "--seeds", "0:3"],
    ],
)
def test_identical_invocations_are_byte_identical(tmp_path, argv):
    a = tmp_path / "a.out"
    b = tmp_path / "b.out"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_numbers_use_dot_and_17_digits(tmp_path):
    out = tmp_path / "series.csv"
    main(["simulate", "--n", "3", "--marked", "1", "--dist", "uniform",
          "--steps", "1", "--out", str(out)])
    _, _, rows = read_csv_rows(out)
    kbar_re = rows[0].split(",")[1]
    assert kbar_re == format(1 / math.sqrt(3), ".17g")


# -- one parser per process ------------------------------------------------------


def _fresh_python(args, cwd):
    """(exit code, stdout, stderr) of ``python args`` in a new interpreter
    that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


# one argv per subcommand; the predict and sweep lines lean on the list
# defaults (--j; --dist, --seeds), compare and sweep exit 1 with stderr
_FRESH_ARGVS = [
    ["simulate", "--n", "32", "--r", "2", "--dist", "random-complex", "--seed", "7",
     "--steps", "5", "--sample"],
    ["predict", "--n", "64", "--r", "2", "--kbar0=-0.05+0.01j", "--lbar0", "0.1",
     "--sigma-l-sq", "0.001"],
    ["compare", "--n", "16", "--marked", "3,7", "--dist", "random-real", "--seed", "2",
     "--steps", "4", "--tol", "0"],
    ["sweep", "--n", "8,16", "--r", "1,5"],
]


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 16, "r": 1, "dist": "uniform", "j": "0,2",
                               "allow_large_r": True}))
    # every way out of the shared parser first: a usage error, help, a
    # config file's options and a sweep on the list defaults
    assert main(["simulate", "--n", "16", "--bogus"]) == 2
    assert main(["predict", "--help"]) == 0
    assert main(["predict", "--config", str(cfg)]) == 0
    assert main(["sweep", "--n", "16", "--r", "1"]) == 0
    capsys.readouterr()
    for argv in _FRESH_ARGVS:
        for fmt in ("csv", "json"):
            full = [*argv, "--format", fmt]
            code = main(full)
            captured = capsys.readouterr()
            fresh = _fresh_python(["-m", "groversim.cli", *full], tmp_path)
            assert (code, captured.out, captured.err) == fresh, full


def test_list_defaults_are_fresh_objects_on_every_parse():
    parser = build_parser()
    for argv, dest, default in [(["predict"], "j", [0]), (["sweep"], "dist", ["uniform"]),
                                (["sweep"], "seeds", [0])]:
        first = getattr(parser.parse_args(argv), dest)
        first.append("changed")
        second = getattr(parser.parse_args(argv), dest)
        assert second == default and second is not first, dest


def test_main_builds_the_parser_once_per_process(monkeypatch):
    assert build_parser() is build_parser()
    argv = ["predict", "--n", "16", "--r", "1", "--kbar0", "0.25", "--lbar0", "0.25",
            "--sigma-l-sq", "0", "--out", os.devnull]
    assert main(argv) == 0
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for _ in range(20):
        assert main(argv) == 0
    assert built == []


def test_importing_the_cli_builds_no_parser(tmp_path):
    # set-up time covers the import; the parser is built on the first main call
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import groversim.cli\n"
        "print(len(built), groversim.cli.build_parser.cache_info().currsize)\n"
    )
    assert _fresh_python(["-c", code], tmp_path) == (0, "0 0\n", "")
