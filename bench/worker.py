"""One workload run in a fresh program process.

Started by ``run.py`` from the root of a checkout, with ``src`` on
PYTHONPATH and the BLAS/OpenMP thread environment exactly as run.py
found it.  Every command goes through ``vbpp.cli.main``, the ``vbpp``
console entry point.  The result is written as JSON to ``--result``.

    python3 bench/worker.py --setup-only
    python3 bench/worker.py --workload coal-1d --seed 1 --seconds 30 --trace 0 \
        --result .bench_out/records/x.json
"""

from __future__ import annotations

import time


def measure_setup():
    """Import the package and build the g-tilde table, as any command must."""
    t0 = time.perf_counter()
    import vbpp
    import vbpp.cli  # noqa: F401
    from vbpp import specfun
    specfun.default_table()
    return time.perf_counter() - t0, vbpp.__file__


import argparse  # noqa: E402  (after measure_setup, which must see a cold interpreter)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


class DigestStore:
    """SHA-256 of each command's outputs, kept across runs in one checkout.

    Reruns of one commit must write byte-identical files.  The key holds
    what may legitimately change them: the program's sources, the command
    line, and the BLAS thread setting (which changes the optimiser's iterate
    path).
    """

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}

    def check(self, key: str, value: str) -> list[str]:
        seen = self.known.setdefault(key, value)
        return [] if seen == value else [f"outputs differ from an earlier run ({key})"]

    def save(self) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)


def run_rep(wl, seed, rep_dir, store, env_key, repeat_predict=True):
    """One repetition of the workload's commands; returns its record."""
    import checks
    import vbpp.cli as cli
    from workloads import repeat_again

    os.makedirs(rep_dir)
    wl.prepare(rep_dir)
    times: dict[str, list[float]] = {}
    invocations = []
    fit_summary = {}
    prev = os.getcwd()
    os.chdir(rep_dir)
    try:
        for command, argv in wl.steps(seed):
            out_dir = argv[argv.index("--out-dir") + 1]
            key = " ".join([wl.name, *argv, env_key])
            ts = times.setdefault(command, [])
            while not ts or (repeat_predict and repeat_again(command, ts)):
                problems = []
                t = time.perf_counter()
                try:
                    rc = cli.main(list(argv))
                except Exception as exc:  # a crash is a failed command, not a failed run
                    rc = None
                    problems.append(f"raised {type(exc).__name__}: {exc}")
                    traceback.print_exc()
                ts.append(time.perf_counter() - t)
                if rc not in (0, None):
                    problems.append(f"exit code {rc}")
                if not problems:
                    if command == "simulate":
                        problems += checks.check_simulate(out_dir)
                    elif command == "fit":
                        found, fit_summary = checks.check_fit(out_dir, wl.elbo_ref)
                        problems += found
                    elif command == "predict":
                        problems += checks.check_predict(out_dir, wl.predict_points)
                    else:
                        problems += checks.check_evaluate(out_dir)
                if not problems:
                    problems += store.check(key, checks.digest(out_dir))
                invocations.append({"command": command, "problems": problems})
    finally:
        os.chdir(prev)
    step_s = {c: statistics.fmean(ts) for c, ts in times.items()}
    return {"dir": rep_dir, "times": times, "step_s": step_s,
            "pipeline_s": sum(step_s.values()), "invocations": invocations, "fit": fit_summary}


def load_outputs(wl, rep_dir):
    """The fitted model, the events it was fitted to, the evaluate report."""
    from vbpp.core import load_model
    from vbpp.pointdata import load_events

    model = load_model(os.path.join(rep_dir, "fit", "model.json"))
    events = load_events(os.path.join(rep_dir, wl.data_file), model.domain)
    with open(os.path.join(rep_dir, "eval", "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    return model, events, report


def sizes(wl, model, events, report) -> dict:
    return {"n_events": events.n, "n_inducing": model.num_inducing, "dims": model.domain.dims,
            "test_n": report["n_test"], "predict_points": wl.predict_points,
            "mc_grid": report["grid_resolution"]}


def source_digest(src_dir: str) -> str:
    """Short SHA-256 of the package sources, so stored output digests from
    another version of the program are never compared."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def traced_run(wl, seed, work, store, env_key, untraced_pipeline_s, env):
    """One traced repetition, then the layer probes on its fitted model."""
    import layers
    import probes
    from spans import Recorder
    from vbpp.pointdata import split_events
    from workloads import SPLIT_FRACTION, SPLIT_SEED

    rec = Recorder()
    missing = layers.install(rec)
    try:
        rep = run_rep(wl, seed, os.path.join(work, "traced"), store, env_key,
                      repeat_predict=False)
    finally:
        rec.restore()
    metrics = layers.layer_metrics(rec.spans)
    metrics["trace.overhead_frac"] = rep["pipeline_s"] / untraced_pipeline_s - 1.0

    model, events, report = load_outputs(wl, rep["dir"])
    size = sizes(wl, model, events, report)
    train, test = split_events(events, SPLIT_FRACTION, SPLIT_SEED)
    probe_metrics, notes = probes.run(model, events, train, test, report["ks_sigma"],
                                      report["grid_resolution"], seed)
    metrics.update(probe_metrics)
    for key in ("blas_threads_numpy", "blas_threads_scipy", "nproc"):
        metrics[f"env.{key}"] = float(env[key]) if env.get(key) is not None else -1.0
    for key in ("n_events", "n_inducing", "dims", "test_n", "predict_points"):
        metrics[f"data.{key}"] = float(size[key])
    notes += [f"layer boundary not found: {name}" for name in missing]
    return rep, metrics, notes


def main(argv=None) -> int:
    setup_s, vbpp_file = measure_setup()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import envinfo
    from workloads import WORKLOADS

    root = os.getcwd()
    expected = os.path.realpath(os.path.join(root, "src", "vbpp"))
    if os.path.dirname(os.path.realpath(vbpp_file)) != expected:
        print(f"error: imported vbpp from {vbpp_file}, not from {expected}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = envinfo.collect()   # before any command: the CLI may export thread variables
    env_key = ";".join([f"src{source_digest(expected)}",
                        f"blas{env['blas_threads_numpy']}/{env['blas_threads_scipy']}",
                        *(f"{k}={v}" for k, v in sorted(env["thread_vars"].items()))])
    out_root = os.path.join(root, ".bench_out")
    store = DigestStore(os.path.join(out_root, "digests.json"))
    work = os.path.join(out_root, "work", f"{wl.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)

    reps = []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        reps.append(run_rep(wl, args.seed, os.path.join(work, f"rep{len(reps)}"), store,
                            env_key))
        now = time.perf_counter()
        # Start another repetition only if it should end within the budget.
        if (now - start) + (now - rep_start) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Means, not medians, over repetitions and predict calls: with BLAS
    # thread contention on a shared machine the times spread over a wide,
    # often two-humped range, where a median of a few values jumps.
    def mean_of(command):
        return statistics.fmean(r["step_s"].get(command, 0.0) for r in reps)

    metrics = {
        "fit_s": mean_of("fit"),
        "predict_s": mean_of("predict"),
        "evaluate_s": mean_of("evaluate"),
        "pipeline_s": statistics.fmean(r["pipeline_s"] for r in reps),
        "peak_rss_mb": peak_rss_mb,
        "simulate_s": mean_of("simulate"),
        "fit_elbo": reps[-1]["fit"].get("elbo") or 0.0,   # 0 only when the fit failed
    }
    result = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "setup_s": setup_s, "env": env, "metrics": metrics, "notes": [],
              "reps": [{k: r[k] for k in ("times", "step_s", "pipeline_s", "fit")}
                       for r in reps]}
    all_reps = list(reps)
    if args.trace:
        rep, layer, notes = traced_run(wl, args.seed, work, store, env_key,
                                       metrics["pipeline_s"], env)
        all_reps.append(rep)
        layer["simulate_s"] = metrics["simulate_s"]
        layer["fit_elbo"] = metrics["fit_elbo"]
        result["layer"] = layer
        result["sizes"] = {k: layer[f"data.{k}"] for k in
                           ("n_events", "n_inducing", "dims", "test_n", "predict_points")}
        result["notes"] += notes
    else:
        try:
            result["sizes"] = sizes(wl, *load_outputs(wl, reps[-1]["dir"]))
        except (OSError, KeyError, ValueError) as exc:
            result["notes"].append(f"sizes unavailable: {exc}")
    invocations = [inv for r in all_reps for inv in r["invocations"]]
    result["attempted"] = len(invocations)
    result["failed"] = sum(1 for inv in invocations if inv["problems"])
    result["problems"] = sorted({p for inv in invocations for p in inv["problems"]})
    store.save()
    os.makedirs(os.path.dirname(args.result), exist_ok=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
