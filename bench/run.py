"""vbpp benchmark: run one workload through the ``vbpp`` CLI and report it.

Run from the root of a checkout:

    python3 bench/run.py --workload coal-1d --seed 1 --seconds 30 --trace 0

The workload runs in one fresh program process (``worker.py``), commands in a
closed loop, one at a time.  Set-up time (import plus the g-tilde table) is
measured in that process and in extra fresh interpreters, and the median is
reported.  With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` a further repetition runs with spans on every layer boundary
and the result holds the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The full record of each run, with sizes and the
environment, is written under ``.bench_out/records``.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_EXTRA = 4            # fresh interpreters timed besides the workload's own
TIME_LIMIT_S = 170.0       # whole run, set-up samples included


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one vbpp benchmark workload and print its result.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vbpp", "cli.py")):
        print("error: no vbpp sources under ./src; run from the root of a vbpp checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Thread variables pass through untouched: the program's own thread
    # policy is part of what is measured.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = os.path.join(root, ".bench_out")
    os.makedirs(os.path.join(out, "logs"), exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    record_path = os.path.join(out, "records", f"{tag}.json")
    log_path = os.path.join(out, "logs", f"{tag}.log")

    setup = []
    try:
        for _ in range(SETUP_EXTRA):
            proc = subprocess.run([sys.executable, WORKER, "--setup-only"], cwd=root, env=env,
                                  capture_output=True, text=True,
                                  timeout=deadline - time.monotonic())
            if proc.returncode != 0:
                return _fail(f"set-up probe failed:\n{proc.stderr[-2000:]}")
            setup.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        if os.path.exists(record_path):
            os.remove(record_path)
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.run(
                [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--result", record_path],
                cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        return _fail(f"run exceeded {TIME_LIMIT_S:.0f} s (log: {log_path})")
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as fh:
            return _fail(f"workload process exited {proc.returncode}:\n{fh.read()[-3000:]}")
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)

    setup.append(record["setup_s"])
    values = dict(record["layer"] if args.trace else record["metrics"])
    values["setup_s"] = statistics.median(setup)
    record["setup_samples"] = setup
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return _fail(f"benchmark produced no value for {', '.join(missing)}")

    print(f"# {args.workload} seed={args.seed} reps={len(record['reps'])} "
          f"sizes={json.dumps(record.get('sizes', {}))}")
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    for note in record["notes"] + record["problems"]:
        print(f"# ! {note}")
    extra = [("simulate_s", "s"), ("fit_elbo", "nats")]
    for name, unit in [(w["name"], w["unit"]) for w in wanted] + ([] if args.trace else extra):
        print(f"{name} = {values[name]!r} {unit}")
    print(f"failed_frac = {record['failed'] / max(record['attempted'], 1)!r} ratio")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {w["name"]: {"value": values[w["name"]], "unit": w["unit"]} for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
