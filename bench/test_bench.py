"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from spans import Recorder, Span, covered_length, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(1, 3), (2, 5)], 0, 2.5) == 1.5
    assert covered_length([], 0, 10) == 0


def test_self_time_of_nested_and_sibling_spans():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.child", 2.0, 3.0, parent=1),
        Span("b", 5.0, 7.0, parent=0),
        Span("b.child", 5.5, 6.0, parent=3),
        Span("b.child2", 6.0, 6.5, parent=3),
    ]
    # Grandchildren are covered by their parent, so only direct children count.
    assert self_times(spans) == [5.0, 2.0, 1.0, 1.0, 0.5, 0.5]


def test_recorder_nests_spans_and_keeps_errors():
    rec = Recorder(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))

    def inner(x):
        if x < 0:
            raise FloatingPointError("negative")
        return x

    traced_inner = rec.wrap("inner", inner, info=lambda a, k, r: {"x": r})

    def outer(x):
        return traced_inner(x) + traced_inner(x)

    assert rec.wrap("outer", outer)(2) == 4
    assert [(s.name, s.parent, s.start, s.end) for s in rec.spans] == [
        ("outer", None, 0.0, 5.0), ("inner", 0, 1.0, 2.0), ("inner", 0, 3.0, 4.0)]
    assert rec.spans[1].info == {"x": 2}
    assert self_times(rec.spans) == [3.0, 1.0, 1.0]

    rec = Recorder(clock=FakeClock([0.0, 1.0]))
    with pytest.raises(FloatingPointError):
        rec.wrap("inner", inner)(-1)
    assert rec.spans[0].error == "FloatingPointError"


def test_patch_reaches_names_imported_elsewhere_and_restores():
    pkg_a = types.ModuleType("fakepkg.a")
    pkg_b = types.ModuleType("fakepkg.b")

    def f():
        return 1

    pkg_a.f = f
    pkg_b.f = f                                   # as after "from .a import f"
    sys.modules.update({"fakepkg.a": pkg_a, "fakepkg.b": pkg_b})
    try:
        rec = Recorder()
        rec.patch(pkg_a, "f", "a.f", package="fakepkg")
        assert pkg_b.f() == 1 and pkg_a.f() == 1
        assert [s.name for s in rec.spans] == ["a.f", "a.f"]
        rec.restore()
        assert pkg_a.f is f and pkg_b.f is f
    finally:
        del sys.modules["fakepkg.a"], sys.modules["fakepkg.b"]


def test_layer_metrics_count_rejected_evaluations_and_outermost_bounds():
    spans = [
        Span("optimizer.fit", 0.0, 10.0, info={"iterations": 2, "converged": True}),
        Span("core.eval", 1.0, 2.0, parent=0, info={"n": 10, "finite": True}),
        Span("core.eval", 3.0, 4.0, parent=0, error="LinAlgError"),
        Span("core.eval", 5.0, 6.0, parent=0, info={"n": 10, "finite": False}),
        Span("core.elbo", 11.0, 13.0),
        Span("core._bound_value", 11.5, 12.5, parent=4),
        Span("core.kl_qu_pu", 12.0, 12.25, parent=5),
        Span("core.kl_qu_pu", 14.0, 14.5),
    ]
    m = layers.layer_metrics(spans)
    assert m["optimizer.objective_evals"] == 3
    assert m["optimizer.rejected_evals"] == 2
    assert m["optimizer.evals_per_iter"] == 1.5
    assert m["optimizer.self_s"] == 7.0
    assert m["core.bound_s"] == 2.5


def test_names_and_limits_follow_the_result_format():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOADS)
    for w in spec["workloads"]:
        assert NAME.fullmatch(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_coal_1d(trace):
    proc = run_bench(ROOT, "--workload", "coal-1d", "--seed", "7", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = load_spec()
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "coal-1d", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
