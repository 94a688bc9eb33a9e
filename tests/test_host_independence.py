"""The printed bytes depend on neither the BLAS thread count nor the CPU.

Each case runs a few command lines in fresh interpreters whose
environment differs in one variable, and requires identical stdout.  The
variable is set only in the child's environment.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__

import groversim

SRC = str(Path(groversim.__file__).resolve().parents[1])
HOST_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NPY_DISABLE_CPU_FEATURES")

# runs each argv through cli.main in one interpreter; stdout is their outputs
CHILD = """
import sys
from groversim.cli import main
for argv in {argvs!r}:
    if main(argv) != 0:
        sys.exit(f"exit != 0: {{argv}}")
"""


def _stdout(argvs, **host):
    env = {k: v for k, v in os.environ.items() if k not in HOST_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(argvs=argvs)], capture_output=True,
        text=True, env=dict(env, **host), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _generated(command, kind, n, *extra):
    return [command, "--n", str(n), "--r", "3", "--dist", kind, "--seed", "5", *extra]


def test_bytes_do_not_depend_on_the_blas_thread_count():
    # past 10,000 entries OpenBLAS splits a dot product's sum across threads
    argvs = [_generated("simulate", "random-complex", 2**14, "--steps", "5", "--sample"),
             _generated("compare", "random-complex", 2**14, "--steps", "5"),
             _generated("predict", "random-complex", 2**14)]
    outputs = [_stdout(argvs, OPENBLAS_NUM_THREADS=str(t), OMP_NUM_THREADS=str(t))
               for t in (1, 2, 4)]
    assert outputs[0].count("groversim-") == 3
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# what numpy runs on an AVX2-only host, and on an x86-64-v2 host
CPU_MASKS = ("X86_V4 AVX512_ICL AVX512_SPR", "X86_V4 X86_V3 AVX512_ICL AVX512_SPR")


def _dispatchable(mask):
    """Whether this numpy build can run with the features in ``mask`` off."""
    features = set(mask.split())
    return features <= set(__cpu_dispatch__) and not features & set(__cpu_baseline__)


def test_bytes_do_not_depend_on_the_cpu_features():
    masks = [mask for mask in CPU_MASKS if _dispatchable(mask)]
    if not masks:
        pytest.skip("this numpy build dispatches none of the masked features")
    # gaussian-real went through np.exp, random-complex through complex abs;
    # compare's amp_dev on a real start is a float abs, exact on every host
    argvs = [_generated(command, kind, 4096, *extra)
             for kind in ("gaussian-real", "random-complex")
             for command, extra in (("simulate", ("--steps", "20")), ("predict", ()))]
    argvs.append(_generated("compare", "random-real", 4096, "--steps", "20"))
    reference = _stdout(argvs)
    for mask in masks:
        assert _stdout(argvs, NPY_DISABLE_CPU_FEATURES=mask) == reference, mask
