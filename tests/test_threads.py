"""The BLAS thread policy, observed from outside the package.

Each case runs the ``vbpp`` command (simulate, fit, evaluate) in a fresh
interpreter and reads the thread count of numpy's and scipy's bundled
OpenBLAS through their own getters: before vbpp is imported, after, inside
the joint covariance's pivoted Cholesky in ``predictive_report``, and at the end.  It
also keeps evaluate's report.json.  One more case fits the same data at one and at
two threads.
"""

import glob
import json
import os
import subprocess
import sys

import numpy
import pytest
import scipy

import vbpp

# (package, bundled library, thread-count getter)
OPENBLAS = (("numpy", "libscipy_openblas64_*", "scipy_openblas_get_num_threads64_"),
            ("scipy", "libscipy_openblas-*", "scipy_openblas_get_num_threads"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _bundled(module, pattern):
    return glob.glob(os.path.join(os.path.dirname(module.__file__) + ".libs", pattern))


needs_openblas = pytest.mark.skipif(
    not (_bundled(numpy, OPENBLAS[0][1]) and _bundled(scipy, OPENBLAS[1][1])
         and hasattr(os, "RTLD_NOLOAD")),
    reason="needs the OpenBLAS libraries bundled in numpy's and scipy's wheels")

PROBE = r"""
import ctypes, glob, json, os, sys
import numpy, scipy.linalg

def pools():
    counts = {}
    for package, pattern, getter in OPENBLAS:
        root = os.path.dirname(sys.modules[package].__file__)
        path = sorted(glob.glob(os.path.join(root + ".libs", pattern)))[0]
        fn = getattr(ctypes.CDLL(path, mode=os.RTLD_NOLOAD), getter)
        fn.argtypes, fn.restype = [], ctypes.c_int
        counts[package] = fn()
    return counts

seen = {"before": pools()}
from vbpp import cli, predictive
seen["imported"] = pools()
seen["optimize_loaded"] = ["scipy.optimize" in sys.modules]
seen["inside"] = []
factor = predictive._pivoted_cholesky

def probe(*args, **kwargs):
    seen["inside"].append(pools())
    return factor(*args, **kwargs)

predictive._pivoted_cholesky = probe
os.chdir(sys.argv[1])
for argv in (["simulate", "--domain", "0:3", "--gamma", "16", "--alpha", "0.5",
              "--grid-res", "256", "--seed", "1", "--out-dir", "sim"],
             ["fit", "--data", "sim/events.csv", "--domain", "0:3", "--inducing", "5",
              "--max-iters", "20", "--out-dir", "fit"],
             ["evaluate", "--model", "fit/model.json", "--data", "sim/events.csv",
              "--samples", "200", "--out-dir", "eval"]):
    assert cli.main(argv) == 0, argv
    seen["optimize_loaded"].append("scipy.optimize" in sys.modules)
seen["after"] = pools()
print(json.dumps(seen))
"""


def python(code, *args, **user_vars):
    """Run ``code`` in a fresh interpreter with only ``user_vars`` of THREAD_VARS set."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(user_vars)
    src = os.path.dirname(os.path.dirname(vbpp.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def observe(tmp_path, **user_vars):
    tmp_path.mkdir(exist_ok=True)
    proc = python(f"OPENBLAS = {OPENBLAS!r}\n" + PROBE, str(tmp_path), **user_vars)
    assert proc.returncode == 0, proc.stderr[-3000:]
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(seen["inside"]) == 1   # one factorisation per predictive_report
    seen["report"] = (tmp_path / "eval" / "report.json").read_bytes()
    return seen


@needs_openblas
def test_import_sets_one_thread_and_prediction_keeps_it(tmp_path):
    seen = observe(tmp_path / "default")
    one = {"numpy": 1, "scipy": 1}
    assert seen["imported"] == one
    assert seen["inside"] == [one]
    assert seen["after"] == one
    # import and simulate leave scipy.optimize unloaded; the fit's search
    # loads it, and the one-thread policy above survives that
    assert seen["optimize_loaded"] == [False, False, True, True]
    # the report does not depend on the machine's core count
    assert seen["report"] == observe(tmp_path / "user", OPENBLAS_NUM_THREADS="1")["report"]


@needs_openblas
def test_a_users_thread_count_of_one_holds_everywhere(tmp_path):
    seen = observe(tmp_path, OPENBLAS_NUM_THREADS="1")
    one = {"numpy": 1, "scipy": 1}
    assert seen["imported"] == seen["after"] == one
    assert seen["inside"] == [one]


@needs_openblas
def test_a_users_openblas_setting_is_left_in_place(tmp_path):
    seen = observe(tmp_path, OPENBLAS_NUM_THREADS=str(os.cpu_count()))
    assert seen["imported"] == seen["after"] == seen["before"]
    assert seen["inside"] == [seen["before"]]


DENSE_FIT = r"""
import json
from vbpp.kernel import HyperParams
from vbpp.optimizer import fit
from vbpp.pointdata import Domain
from vbpp.simulate import ground_truth, thin_sample

d = Domain([0.0], [10.0])
events = thin_sample(ground_truth(HyperParams(200.0, [1.0]), d, seed=3), d, seed=3)
meta = fit(events, d, 32).fit_metadata
print(json.dumps([meta["elbo"], meta["converged"], meta["blas_threads"]]))
"""


@needs_openblas
def test_dense_fit_agrees_between_one_and_two_blas_threads():
    # the dense 1-D configuration (simulate --gamma 200 --alpha 1 --seed 3 on
    # 0:10, M = 32): another thread count sums in another order, and the fit
    # must end at the same optimum
    runs = []
    for count in (1, 2):
        proc = python(DENSE_FIT, OPENBLAS_NUM_THREADS=str(count))
        assert proc.returncode == 0, proc.stderr[-3000:]
        elbo, converged, threads = json.loads(proc.stdout.strip().splitlines()[-1])
        assert converged and threads == {"numpy": count, "scipy": count}
        runs.append(elbo)
    assert abs(runs[0] - runs[1]) <= 1e-6 * abs(runs[0]), runs
