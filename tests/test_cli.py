import json
import os
import subprocess
import sys

import numpy as np
import pytest

from vbpp.cli import main, parse_domain
from vbpp.pointdata import load_events


def run(tmp, *argv):
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A simulate -> fit chain reused by the downstream command tests."""
    tmp = tmp_path_factory.mktemp("cli")
    code = run(tmp, "simulate", "--domain", "0:3", "--gamma", "16",
               "--alpha", "0.5", "--grid-res", "256", "--seed", "1",
               "--out-dir", "sim")
    assert code == 0
    code = run(tmp, "fit", "--data", "sim/events.csv", "--domain", "0:3",
               "--inducing", "5", "--max-iters", "60", "--out-dir", "fit")
    assert code == 0
    return tmp


def test_parse_domain():
    d = parse_domain("0:1,2:5")
    assert d.lo.tolist() == [0.0, 2.0]
    assert d.hi.tolist() == [1.0, 5.0]
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_domain("0:1:2")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_domain("a:b")


def test_simulate_outputs(workspace):
    sim = workspace / "sim"
    ev = load_events(sim / "events.csv", parse_domain("0:3"))
    assert ev.n > 0
    manifest = json.loads((sim / "simulate_manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["gamma"] == 16.0
    truth_rows = (sim / "truth.csv").read_text().strip().split("\n")
    assert truth_rows[0] == "x0,lambda"
    assert len(truth_rows) == 257


def test_fit_outputs(workspace):
    fit_dir = workspace / "fit"
    from vbpp.core import load_model
    model = load_model(fit_dir / "model.json")
    assert model.num_inducing == 5
    trace = (fit_dir / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "iteration,objective"
    assert len(trace) >= 3
    manifest = json.loads((fit_dir / "fit_manifest.json").read_text())
    assert manifest["config"]["inducing"] == 5


def test_inducing_per_dim_is_the_inducing_count(tmp_path):
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "events.csv", rng.uniform(0.0, 2.0, (30, 2)), delimiter=",")
    assert run(tmp_path, "fit", "--data", "events.csv", "--domain", "0:2,0:2",
               "--inducing-per-dim", "3", "--max-iters", "5", "--out-dir", "fit") == 0
    from vbpp.core import load_model
    assert load_model(tmp_path / "fit" / "model.json").num_inducing == 9
    manifest = json.loads((tmp_path / "fit" / "fit_manifest.json").read_text())
    assert manifest["config"]["inducing"] == 3
    assert "inducing_per_dim" not in manifest["config"]


def test_predict_outputs(workspace):
    code = run(workspace, "predict", "--model", "fit/model.json",
               "--grid-res", "32", "--out-dir", "pred")
    assert code == 0
    rows = (workspace / "pred" / "intensity.csv").read_text().strip().split("\n")
    assert rows[0] == "x0,mean,lower,upper"
    assert len(rows) == 33
    vals = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert (vals[:, 2] <= vals[:, 1]).all()
    assert (vals[:, 1] <= vals[:, 3]).all()


def test_evaluate_with_split_and_baseline(workspace):
    code = run(workspace, "evaluate", "--model", "fit/model.json",
               "--data", "sim/events.csv", "--split", "0.5",
               "--samples", "300", "--baseline",
               "--out-dir", "eval")
    assert code == 0
    doc = json.loads((workspace / "eval" / "report.json").read_text())
    assert doc["l_p"] <= doc["m_p_hat"] + 4 * doc["m_p_stderr"] + 0.5
    assert np.isfinite(doc["ks_log_predictive"])
    assert doc["n_test"] > 0
    assert not (workspace / "eval" / "intensity.csv").exists()    # predict draws the map
    assert (workspace / "eval" / "evaluate_manifest.json").exists()


def test_baseline_command(workspace):
    code = run(workspace, "baseline", "--data", "sim/events.csv",
               "--domain", "0:3", "--out-dir", "ks")
    assert code == 0
    doc = json.loads((workspace / "ks" / "ks_model.json").read_text())
    assert all(s > 0 for s in doc["sigma"])


def test_usage_errors_exit_2(workspace, capsys):
    assert run(workspace, "fit", "--data", "sim/events.csv") == 2  # no --domain
    assert run(workspace, "nonsense") == 2
    assert run(workspace, "simulate", "--domain", "0:1", "--link", "sigmoid",
               "--out-dir", "s2") == 2
    assert run(workspace, "simulate", "--domain", "0:4,0:4", "--alpha", "4",
               "--out-dir", "s5") == 2
    assert "--alpha" in capsys.readouterr().err
    assert run(workspace, "evaluate", "--model", "fit/model.json",
               "--out-dir", "e2") == 2
    # --test and --data are exclusive, and the smoother is always edge-corrected
    assert run(workspace, "evaluate", "--model", "fit/model.json", "--test",
               "sim/events.csv", "--data", "sim/events.csv", "--out-dir", "e5") == 2
    assert run(workspace, "evaluate", "--model", "fit/model.json", "--data",
               "sim/events.csv", "--baseline", "--no-end-correction", "--out-dir", "e6") == 2
    assert run(workspace, "baseline", "--data", "sim/events.csv", "--domain", "0:3",
               "--no-end-correction", "--out-dir", "k2") == 2
    capsys.readouterr()
    assert run(workspace, "evaluate", "--model", "fit/model.json", "--test",
               "sim/events.csv", "--samples", "50", "--baseline", "--out-dir", "e7") == 2
    assert "error: --baseline needs --train" in capsys.readouterr().err
    assert not (workspace / "e7").exists()
    # evaluate sizes its quadrature from the model
    assert run(workspace, "evaluate", "--model", "fit/model.json", "--data",
               "sim/events.csv", "--grid-res", "8", "--out-dir", "e3") == 2
    # a malformed --domain is a usage error, not a traceback
    assert run(workspace, "fit", "--data", "sim/events.csv", "--domain", "0-3",
               "--out-dir", "f3") == 2
    assert run(workspace, "simulate", "--domain", "a:b", "--out-dir", "s3") == 2
    assert "error: " in capsys.readouterr().err


def test_runtime_errors_exit_1(workspace):
    assert run(workspace, "fit", "--data", "no_such_file.csv",
               "--domain", "0:1", "--out-dir", "f2") == 1
    assert run(workspace, "evaluate", "--model", "fit/model.json", "--data",
               "sim/events.csv", "--split", "1.5", "--out-dir", "e4") == 1
    # grids need at least one point per dimension
    for count in ("0", "-2"):
        assert run(workspace, "fit", "--data", "sim/events.csv", "--domain", "0:3",
                   "--inducing", count, "--out-dir", "f4") == 1
    assert not (workspace / "f4").exists()
    assert run(workspace, "predict", "--model", "fit/model.json", "--grid-res", "0",
               "--out-dir", "p4") == 1
    assert run(workspace, "simulate", "--domain", "0:3", "--grid-res", "0",
               "--out-dir", "s4") == 1


def test_help_exits_zero(workspace):
    assert run(workspace, "--help") == 0


def test_rerun_byte_identical(workspace):
    commands = {
        "fit": ("fit", "--data", "sim/events.csv", "--domain", "0:3",
                "--inducing", "4", "--max-iters", "40"),
        "evaluate": ("evaluate", "--model", "fit/model.json", "--data", "sim/events.csv",
                     "--samples", "600", "--seed", "7", "--baseline"),
    }
    for name, argv in commands.items():
        for out in ("rep1", "rep2"):
            assert run(workspace, *argv, "--out-dir", f"{name}_{out}") == 0
        a, b = workspace / f"{name}_rep1", workspace / f"{name}_rep2"
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for file in files:
            assert (a / file).read_bytes() == (b / file).read_bytes(), (name, file)
    assert "report.json" in files and "intensity.csv" not in files


def test_import_skips_scipy_stats():
    # scipy.stats takes about half a second to import and no command needs it
    src = os.path.dirname(os.path.dirname(__import__("vbpp").__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, vbpp.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
