"""Tests of the benchmark itself: ``python3 -m pytest benchmarks``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "count, percentile, value",
    [
        (1, 100.0, 1.0),  # too few for ten beyond: the slowest
        (10, 100.0, 10.0),
        (11, 100.0 / 11, 1.0),
        (20, 50.0, 10.0),
        (100, 90.0, 90.0),
        (1000, 99.0, 990.0),
        (1125, 100.0 * 1115 / 1125, 1115.0),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, percentile, value):
    samples = [float(i) for i in range(count, 0, -1)]
    assert run.tail(samples) == (pytest.approx(percentile), value)
    assert sum(x > value for x in samples) == (10 if count > 10 else 0)


def test_self_time_subtracts_direct_children_only():
    nested = [
        Span("cli", 0.0, 10.0, -1, 0),
        Span("analytic.solve", 1.0, 4.0, 0, 0),
        Span("core.summary_stats", 2.0, 3.0, 1, 0),
        Span("core.run", 5.0, 9.0, 0, 0),
        Span("cli", 20.0, 21.0, -1, 1),
    ]
    assert spans.self_times(nested) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_traced_cli_call_counts_one_run_per_step_and_conserves_time(tmp_path):
    from groversim import analytic, cli, core, distributions

    modules = {"cli": cli, "core": core, "analytic": analytic,
               "distributions": distributions}
    original = core.run
    tracer = spans.Tracer()
    with tracer.installed(modules), tracer.span("cli"):
        code = cli.main(["simulate", "--n", "64", "--r", "2", "--dist", "uniform",
                         "--steps", "7", "--out", str(tmp_path / "o.csv")])
    assert code == 0 and cli.run is original
    metrics = spans.layer_metrics(tracer, passes=1)
    assert metrics["core.run.calls"] == 7
    assert metrics["core.run.amp_steps"] == 7 * 64
    assert metrics["analytic.solve.calls"] == 1
    # self times partition the root span
    root = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(root.end - root.start)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_unused_seed_runs_clean(workload, trace):
    done = _bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    *_, detail_line, result_line = done.stdout.splitlines()
    result, detail = json.loads(result_line), json.loads(detail_line)["detail"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in metrics.values())
    elif workload == "trajectory":
        assert metrics["core.run.calls"] == detail["steps_per_pass"] > 0
    elif workload == "plan-scalar":
        assert not any(v for k, v in metrics.items() if k.startswith("core."))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "trajectory", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


def test_host_scale_takes_times_to_the_reference_speed():
    # loops at half speed halve every time, whatever the share of each
    slow = [(2 * run.VECTOR_REF, 2 * run.TEXT_REF), (9 * run.VECTOR_REF, 9 * run.TEXT_REF),
            (2 * run.VECTOR_REF, 2 * run.TEXT_REF)]
    for share in (0.0, 0.3, 1.0):
        assert run.host_scale(slow, share) == pytest.approx(0.5)
    # only the text loop slowed: the share says how much that matters
    text_slow = [(run.VECTOR_REF, 3 * run.TEXT_REF)]
    assert run.host_scale(text_slow, 0.5) == pytest.approx(0.5)
    assert all(t > 0 for t in run.calibrate())
