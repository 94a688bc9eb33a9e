"""CLI subcommands: behaviour, schemas, exit codes, determinism."""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groversim.analytic import reconstruct, solve
from groversim.cli import MAX_SWEEP_CELLS, main
from groversim.core import SearchConfig, run, save_state, state_to_dict
from groversim.distributions import DistributionSpec, generate


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return comments, body[0], body[1:]


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


def test_simulate_usage_errors():
    assert main(["simulate", "--n", "4", "--marked", "0", "--dist", "uniform"]) == 2
    assert main(["simulate", "--n", "4", "--dist", "uniform", "--steps", "1"]) == 2
    assert main(["simulate", "--nope"]) == 2
    assert main(["simulate", "--n", "4", "--r", "2", "--marked", "0", "--dist",
                 "uniform", "--steps", "1"]) == 2


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
    # --j is validated whatever the ratio
    assert main(argv + ["--j", "-1"]) == 2
    assert main(argv + ["--j", ","]) == 2


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


def test_predict_degenerate_inputs_exit_2():
    assert main(["predict", "--n", "8", "--r", "0", "--kbar0", "0.1",
                 "--lbar0", "0.1", "--sigma-l-sq", "0"]) == 2
    assert main(["predict", "--n", "8", "--r", "8", "--kbar0", "0.1",
                 "--lbar0", "0.1", "--sigma-l-sq", "0"]) == 2
    assert main(["predict", "--n", "8", "--r", "1", "--kbar0", "zzz",
                 "--lbar0", "0.1", "--sigma-l-sq", "0"]) == 2
    # scalar mode needs every scalar
    assert main(["predict", "--n", "8", "--r", "1", "--kbar0", "0.1"]) == 2
    # non-finite averages are invalid input, not an invariant failure
    for bad in ("nan", "nanj", "infj"):
        assert main(["predict", "--n", "64", "--r", "2", "--kbar0", bad,
                     "--lbar0", "0.1", "--sigma-l-sq", "0.001"]) == 2
        assert main(["predict", "--n", "64", "--r", "2", "--kbar0", "0.1",
                     "--lbar0", bad, "--sigma-l-sq", "0.001"]) == 2


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


@pytest.mark.parametrize(
    "flag, marked", [(["--r", "3"], (0, 1, 2)), (["--marked", "3,77,400"], (3, 77, 400))]
)
@pytest.mark.parametrize("kind", ["random-complex", "gaussian-real"])
def test_compare_amp_dev_is_the_deviation_of_a_fresh_rebuild(tmp_path, flag, marked, kind):
    out = tmp_path / "cmp.json"
    assert main(["compare", "--n", "512", *flag, "--dist", kind, "--seed", "4",
                 "--steps", "30", "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["series"]
    state = generate(DistributionSpec(kind, SearchConfig(512, marked), seed=4))
    sol = solve(state)
    for row in rows:
        t = row["t"]
        dev = np.abs(reconstruct(sol, t).amplitudes - run(state, t).amplitudes)
        assert row["amp_dev"].hex() == float(np.max(dev)).hex()


@pytest.mark.parametrize("subcommand", ["simulate", "compare"])
def test_negative_steps_exit_2_in_every_subcommand(subcommand, capsys):
    argv = [subcommand, "--n", "16", "--r", "1", "--dist", "uniform", "--steps", "-3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --steps must be non-negative\n"


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_compare_rejects_invalid_tolerance(tol, capsys):
    argv = ["compare", "--n", "16", "--r", "1", "--dist", "uniform", "--steps", "3"]
    assert main(argv + ["--tol", tol]) == 2
    assert "disagreement" not in capsys.readouterr().err


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


def test_missing_state_file_exits_2(tmp_path):
    assert main(["predict", "--state", str(tmp_path / "nope.json")]) == 2
    assert main(["simulate", "--state", str(tmp_path / "nope.json"),
                 "--steps", "1"]) == 2


def test_compare_corrupted_state_exits_2(tmp_path):
    state = generate(DistributionSpec("uniform", SearchConfig(8, (0,))))
    doc = state_to_dict(state)
    doc["amplitudes"] = [[0.9 * re, 0.9 * im] for re, im in doc["amplitudes"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["compare", "--state", str(bad), "--steps", "5"]) == 2
    # the renormalize flag rescues it
    assert (
        main(
            [
                "compare", "--state", str(bad), "--steps", "5", "--renormalize",
                "--out", str(tmp_path / "ok.csv"),
            ]
        )
        == 0
    )


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
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--n", f"16,{2**44}", "--r", "1", "--format", "json",
                 "--out", str(out)]) == 1
    ok, failed = json.loads(out.read_text())["rows"]
    assert ok["status"] == "ok"
    assert failed["status"] == "error" and "no memory for a statevector" in failed["error"]


@pytest.mark.parametrize(
    "argv, kernel",
    [
        (["simulate", "--n", "64", "--r", "1", "--dist", "uniform", "--steps", "3"], "run"),
        (["compare", "--n", "64", "--r", "1", "--dist", "uniform", "--steps", "3"],
         "reconstruct"),
    ],
)
def test_memory_error_after_generate_exits_2(monkeypatch, capsys, argv, kernel):
    # stands in for numpy failing to allocate while stepping or rebuilding
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"groversim.cli.{kernel}", out_of_memory)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), lines


@pytest.mark.parametrize("seeds", ["-1:1", "0,-2", "18446744073709551616"])
def test_sweep_rejects_out_of_range_seeds(seeds, capsys):
    assert main(["sweep", "--n", "16", "--r", "1", f"--seeds={seeds}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument --seeds")


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


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe not utf-8",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"n": 1' + b"0" * 5000 + b"}",
    ],
    ids=["utf-8", "nesting", "digits"],
)
def test_unreadable_config_file_exits_2(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert main(["predict", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed config file: "), lines


def test_sample_with_negative_seed_exits_2(tmp_path, capsys):
    path = tmp_path / "s.json"
    save_state(generate(DistributionSpec("uniform", SearchConfig(8, (1,)))), path)
    argv = ["simulate", "--state", str(path), "--steps", "1", "--sample", "--seed", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: argument --seed")


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
    # finite amplitudes whose norm overflows a double
    json.dumps(dict(_GOOD_STATE, amplitudes=[[1e300, 0.0]] * 4)).encode(),
]


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
        expected = f"error: no memory for a statevector of n={2**44} amplitudes"
    elif case == "gaussian":
        flags["--dist"] = "gaussian-real"
        key, value, expected = draw(st.sampled_from([
            ("--gaussian-center", "nan", "error: gaussian center must be finite"),
            ("--gaussian-center", "inf", "error: gaussian center must be finite"),
            ("--gaussian-center", "-inf", "error: gaussian center must be finite"),
            ("--gaussian-spread", "inf", "error: gaussian spread must be finite"),
            # the profile overflows, or underflows to zero everywhere
            ("--gaussian-center", "1e300", "error: sampled a zero vector"),
            ("--gaussian-spread", "1e-200", "error: sampled a zero vector"),
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
        del flags["--dist"]
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(expected), lines


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
