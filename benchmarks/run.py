"""End-to-end benchmark of groversim, driven through ``groversim.cli.main``.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread, one client in a closed loop: each
operation starts when the previous one has returned, as for a user or a
script waiting on each command.

A run builds the seeded deck (see ``workloads.py``), replays it once to
warm up, check every output and take the output digest, then replays
whole passes until ``--seconds`` have elapsed.  Replayed outputs must
match the checked ones byte for byte.  An operation fails on a non-zero
exit or a failed check.  Between passes, nine fresh interpreters are
timed importing groversim and building the deck (``setup_s``); spreading
them over the run keeps a slow spell of the host from setting them all.

Times are reported at a fixed host speed.  On a shared 2-vCPU Xeon
virtual machine, other guests slowed the same 2^14 ``simulate`` from
18 ms to 28-33 ms, in wall and in thread CPU time alike, for tens of
seconds to minutes at a time, and whole 36 s runs of a workload
differed by a quarter in median latency, even in each operation's
fastest sample.  So between operations, at least every ``CAL_EVERY``
seconds and once per pass, the run times two fixed loops
(``calibrate``): vector arithmetic on a 1 MiB complex array, and
formatting and parsing text.  A slow spell slows them unequally (the
text loop 1.9x, the vector loop 1.3x), and each workload's operations
in proportion to their own mix of the two kinds of work, so each
workload names the share of text work it is scaled by
(``workloads.TEXT_SHARE``).  Each pass's times are multiplied by
``host_scale``, the reference speed over that pass's speed: a time is
what the operation would take on a host where the loops take
``VECTOR_REF`` and ``TEXT_REF``, their times on a quiet host.  Over
10 s windows of varying load on that machine, 2^16 ``simulate`` moved
with a coefficient of variation of 0.11 unscaled and 0.02 scaled.  A
change to the program does not touch the loops, and shows.  Each
set-up sample is scaled the same way by calibrations taken just before
it.  The detail line gives the median scale and the unscaled median
latency; per-layer times from the trace are left unscaled.

The process runs one thread (BLAS pools are capped at one) and pins
glibc's mmap and trim thresholds, so freed arrays stay in the heap.
Left dynamic, the thresholds make a 2^16 ``simulate`` take some 60k
minor page faults, about half its time, and on a shared 2-vCPU Xeon
virtual machine their cost swung with host load: the run-to-run spread
of ``trajectory`` latency medians was 0.37 to 0.48 with them and 0.20
without.  What this benchmark times
is the program's own work, not the page faults of the default allocator.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation of each pass twice, untraced and traced, and reports per-layer
metrics per pass, plus the tracing overhead as traced over untraced
median latency, minus one.  Peak memory comes from one more traced run
of the deck's largest operation under tracemalloc.

The last line of stdout is the result object; the line before it holds
details: output digest, tail percentile and sample count, the machine.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 9
STATE_FILE = "state.json"
OUT_FILE = "out.csv"
TAIL_BEYOND = 10  # samples the tail percentile leaves above it
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, malloc.h

CAL_EVERY = 0.1  # seconds between host-speed calibrations
VECTOR_REF, TEXT_REF = 0.9e-3, 1.3e-3  # the loops' seconds on a quiet host
SETUP_TEXT_SHARE = 0.6  # a fresh interpreter mostly loads and runs modules
CAL_VECTOR = np.full(1 << 16, 0.5 + 0.5j)
CAL_OUT = np.empty_like(CAL_VECTOR)
CAL_ROWS = 800

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.build({name!r}, {seed})
print(time.perf_counter() - t0)
"""


def quiet_process() -> None:
    """One thread, and an allocator that reuses freed arrays (see above)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:  # glibc only
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_TRIM_THRESHOLD, 128 << 20)
        mallopt(M_MMAP_THRESHOLD, 64 << 20)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest nearest-rank percentile that leaves
    ten samples above it: the 11th-slowest; the slowest below 11 samples."""
    xs = sorted(samples)
    rank = len(xs) - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs)
    return 100.0 * rank / len(xs), xs[rank - 1]


def calibrate() -> tuple[float, float]:
    """Seconds the host takes for a fixed vector loop and a fixed text loop."""
    start = time.perf_counter()
    for _ in range(4):
        np.multiply(CAL_VECTOR, 0.999, out=CAL_OUT)
        np.add(CAL_VECTOR, CAL_OUT, out=CAL_OUT)
        float(np.vdot(CAL_OUT, CAL_OUT).real)
    middle = time.perf_counter()
    rows = [f"{i},{i * 0.5!r},{math.sin(i)!r}" for i in range(CAL_ROWS)]
    json.loads(json.dumps(rows, indent=2))
    return middle - start, time.perf_counter() - middle


def host_scale(calibrations: list[tuple[float, float]], text_share: float) -> float:
    """Factor taking times at the host's current speed to the reference
    speed, for work with ``text_share`` of its time in text-like work."""
    vector = statistics.median(c[0] for c in calibrations) / VECTOR_REF
    text = statistics.median(c[1] for c in calibrations) / TEXT_REF
    return 1.0 / ((1.0 - text_share) * vector + text_share * text)


def setup_seconds(name: str, seed: int) -> float:
    """Time to import groversim in a fresh interpreter and build the deck,
    scaled by calibrations taken just before."""
    scale = host_scale([calibrate() for _ in range(3)], SETUP_TEXT_SHARE)
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE), name=name, seed=seed)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1]) * scale


def machine(ops: list) -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = (index / "level").read_text().strip(), (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = (index / "size").read_text().strip()
    model = next((line.split(":", 1)[1].strip() for line in
                  Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    largest = max(op.statevector_len for op in ops) * 16
    llc = caches.get("L3") or caches.get("L2", "0K")
    llc_bytes = int(llc.rstrip("K")) * 1024 if llc.endswith("K") else int(llc)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "largest_statevector_bytes": largest, "llc_bytes": llc_bytes,
            "cache_resident": largest <= llc_bytes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "groversim" / "__init__.py").is_file():
        print(f"error: no groversim sources under {SRC}", file=sys.stderr)
        return 2
    quiet_process()
    # a terminated run still unwinds, so its scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    import spans
    import workloads
    from groversim import analytic, cli, core, distributions

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    modules = {"cli": cli, "core": core, "analytic": analytic, "distributions": distributions}
    ops = workloads.build(args.workload, args.seed)

    def run_op(op, tracer=None):
        span = tracer.span if tracer else lambda name: nullcontext()
        out = Path(OUT_FILE)
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        if op.state is not None:
            core.save_state(op.state, STATE_FILE)
            argv = op.argv + ["--state", STATE_FILE]
        else:
            argv = op.argv
        with span("cli"):
            code = cli.main(argv + ["--out", OUT_FILE])
        elapsed = time.perf_counter() - start
        digest = hashlib.sha256()
        if op.state is not None:
            digest.update(Path(STATE_FILE).read_bytes())
        text = out.read_bytes() if out.exists() else b""
        digest.update(text)
        return elapsed, code, text, digest.hexdigest()

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        os.chdir(tmp)
        try:
            # warm-up pass: check every output and keep its digest
            failed, reference, out_bytes = 0, [], 0
            for op in ops:
                _, code, text, digest = run_op(op)
                try:
                    ok = code == 0 and workloads.check(op, text.decode(), STATE_FILE)
                except (ValueError, KeyError, IndexError):
                    ok = False
                failed += not ok
                reference.append(digest)
                out_bytes += len(text)
            attempted = len(ops)
            untraced, traced = [], []
            setup, passes, unscaled, scales = [], 0, [], []
            tracer = spans.Tracer()
            begin = time.perf_counter()
            while passes == 0 or time.perf_counter() - begin < args.seconds:
                # set-up samples are spread over the run, between passes
                due = SETUP_REPS * (time.perf_counter() - begin) / args.seconds
                if not args.trace and len(setup) < min(due, SETUP_REPS):
                    setup.append(setup_seconds(args.workload, args.seed))
                host, last = [calibrate()], time.perf_counter()
                timed = []
                for i, op in enumerate(ops):
                    if time.perf_counter() - last >= CAL_EVERY:
                        host.append(calibrate())
                        last = time.perf_counter()
                    # traced runs alternate between going first and second
                    modes = (None, tracer) if (passes + i) % 2 else (tracer, None)
                    for mode in modes if args.trace else (None,):
                        tracer.op = attempted
                        with tracer.installed(modules) if mode else nullcontext():
                            elapsed, code, _, digest = run_op(op, mode)
                        timed.append((traced if mode else untraced, elapsed))
                        attempted += 1
                        failed += code != 0 or digest != reference[i]
                scales.append(host_scale(host, workloads.TEXT_SHARE[args.workload]))
                for into, elapsed in timed:
                    into.append(elapsed * scales[-1])
                unscaled += [elapsed for into, elapsed in timed if into is untraced]
                passes += 1
            while not args.trace and len(setup) < SETUP_REPS:
                setup.append(setup_seconds(args.workload, args.seed))
            memory = None
            if args.trace:
                memory = spans.Tracer(memory=True)
                with memory.installed(modules):
                    run_op(max(ops, key=lambda op: op.statevector_len), memory)
        finally:
            os.chdir(cwd)

    percentile, tail_s = tail(untraced)
    overall = hashlib.sha256("".join(reference).encode()).hexdigest()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "output_sha256": overall, "ops_per_pass": len(ops), "passes": passes,
              "samples": len(untraced), "tail_percentile": percentile,
              "steps_per_pass": sum(op.steps for op in ops),
              "host_scale": statistics.median(scales),
              "unscaled_op_p50_ms": statistics.median(unscaled) * 1e3,
              "failed_ops_frac": failed / attempted, "machine": machine(ops)}
    print(json.dumps({"detail": detail}))
    if args.trace:
        metrics = spans.layer_metrics(tracer, passes, memory)
        metrics["cli.output_bytes"] = out_bytes
        p50_traced, p50_untraced = statistics.median(traced), statistics.median(untraced)
        metrics["trace.overhead_frac"] = (p50_traced - p50_untraced) / p50_untraced
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "op_p50_ms": statistics.median(untraced) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "ops_per_s": len(untraced) / sum(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
