import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vbpp import cli
from vbpp.cli import build_parser, main, parse_domain
from vbpp.pointdata import coal_style_dataset, load_events, save_events, split_events

from test_baseline import lone_event_data


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


def test_fit_prints_its_search_counts(workspace, capsys):
    # outer iterations, objective evaluations and the inner solves' steps
    assert run(workspace, "fit", "--data", "sim/events.csv", "--domain", "0:3",
               "--inducing", "5", "--out-dir", "fit_counts") == 0
    meta = json.loads((workspace / "fit_counts" / "model.json").read_text())["fit_metadata"]
    assert (f"iterations={meta['iterations']}, evaluations={meta['evaluations']}, "
            f"inner steps={meta['inner_steps']}") in capsys.readouterr().out
    assert meta["evaluations"] > meta["iterations"] > 0 and meta["inner_steps"] > 0


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
    assert 0 < doc["m_p_ess"] <= 300 and 0 < doc["m_0_ess"] <= 300
    assert doc["m_p_components"] >= 2
    assert not (workspace / "eval" / "intensity.csv").exists()    # predict draws the map
    assert (workspace / "eval" / "evaluate_manifest.json").exists()


def test_evaluate_reads_a_test_and_a_training_file_as_it_splits_one(tmp_path):
    events, _ = coal_style_dataset()
    save_events(events, tmp_path / "coal.csv")
    train, test = split_events(events, 0.5, 0)
    save_events(train, tmp_path / "tr.csv")
    save_events(test, tmp_path / "te.csv")
    assert run(tmp_path, "fit", "--data", "coal.csv", "--domain", "1851:1962",
               "--inducing", "8", "--max-iters", "60", "--out-dir", "fit") == 0
    common = ("evaluate", "--model", "fit/model.json", "--samples", "300", "--baseline")
    assert run(tmp_path, *common, "--data", "coal.csv", "--split", "0.5",
               "--split-seed", "0", "--out-dir", "split") == 0
    assert run(tmp_path, *common, "--test", "te.csv", "--train", "tr.csv",
               "--out-dir", "files") == 0
    report = (tmp_path / "split" / "report.json").read_bytes()
    assert (tmp_path / "files" / "report.json").read_bytes() == report
    assert json.loads(report)["n_test"] == test.n


def test_evaluate_samples_must_be_a_positive_integer(workspace, capsys):
    # a usage error, found while parsing: nothing is loaded or written
    for bad in ("0", "-5", "2.5", "x"):
        assert run(workspace, "evaluate", "--model", "missing.json", "--data",
                   "sim/events.csv", "--samples", bad, "--out-dir", "e_bad") == 2, bad
        assert "--samples" in capsys.readouterr().err
    assert not (workspace / "e_bad").exists()


FIT = ("fit", "--data", "sim/events.csv", "--domain", "0:3")


@pytest.mark.parametrize("argv", [
    FIT + ("--inducing", "0"), FIT + ("--inducing", "-2"), FIT + ("--inducing-per-dim", "0"),
    FIT + ("--max-iters", "0"),
    ("simulate", "--domain", "0:3", "--grid-res", "0"),
    ("predict", "--model", "fit/model.json", "--grid-res", "0"),
    ("predict", "--model", "fit/model.json", "--grid-res", "-4"),
], ids=lambda argv: " ".join((argv[0], *argv[-2:])))
def test_counts_below_one_are_usage_errors(workspace, capsys, argv):
    # rejected while parsing, like --samples: nothing is run or written
    assert run(workspace, *argv, "--out-dir", "bad_count") == 2
    assert argv[-2] in capsys.readouterr().err
    assert not (workspace / "bad_count").exists()


def test_evaluate_baseline_needs_training_events_before_any_scoring(workspace, capsys,
                                                                    monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the held-out report ran before the usage check")

    monkeypatch.setattr(cli, "predictive_report", forbidden)
    assert run(workspace, "evaluate", "--model", "fit/model.json", "--test",
               "sim/events.csv", "--baseline", "--out-dir", "e10") == 2
    assert "error: --baseline needs --train" in capsys.readouterr().err
    assert not (workspace / "e10").exists()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_evaluate_baseline_report_is_strict_json_for_a_lone_test_event(tmp_path):
    # the held-out half holds an event whose every kernel term underflows
    _, events = lone_event_data()
    save_events(events, tmp_path / "events.csv")
    assert run(tmp_path, "fit", "--data", "events.csv", "--domain", "0:100",
               "--inducing", "16", "--out-dir", "fit") == 0
    assert run(tmp_path, "evaluate", "--model", "fit/model.json", "--data", "events.csv",
               "--baseline", "--samples", "500", "--out-dir", "eval") == 0
    doc = json.loads((tmp_path / "eval" / "report.json").read_text(),
                     parse_constant=_reject_constant)
    assert np.isfinite(doc["ks_log_predictive"])


def test_baseline_command(workspace):
    code = run(workspace, "baseline", "--data", "sim/events.csv",
               "--domain", "0:3", "--out-dir", "ks")
    assert code == 0
    doc = json.loads((workspace / "ks" / "ks_model.json").read_text())
    assert all(s > 0 for s in doc["sigma"])


def test_usage_errors_exit_2(workspace, capsys):
    assert run(workspace, "fit", "--data", "sim/events.csv") == 2  # no --domain
    assert run(workspace, "nonsense") == 2
    # the one model is the square link, fitted by the bound alone
    assert run(workspace, "simulate", "--domain", "0:1", "--link", "sigmoid",
               "--out-dir", "s2") == 2
    assert run(workspace, "simulate", "--domain", "0:1", "--lambda-star", "2",
               "--out-dir", "s2") == 2
    assert run(workspace, "fit", "--data", "sim/events.csv", "--domain", "0:3",
               "--map", "--out-dir", "f5") == 2
    assert not (workspace / "s2").exists() and not (workspace / "f5").exists()
    assert run(workspace, "simulate", "--domain", "0:4,0:4", "--alpha", "4",
               "--out-dir", "s5") == 2
    assert "--alpha" in capsys.readouterr().err
    assert run(workspace, "simulate", "--domain", "0:4,0:4", "--alpha", "1,x",
               "--out-dir", "s6") == 2
    assert "--alpha" in capsys.readouterr().err
    assert not (workspace / "s5").exists() and not (workspace / "s6").exists()
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
    # with --data the split supplies the training events, so --train is refused
    assert run(workspace, "evaluate", "--model", "fit/model.json", "--data",
               "sim/events.csv", "--train", "no_such_file.csv", "--baseline",
               "--out-dir", "e8") == 2
    assert "error: --train conflicts with --data" in capsys.readouterr().err
    assert not (workspace / "e8").exists()
    # evaluate sizes its quadrature from the model
    assert run(workspace, "evaluate", "--model", "fit/model.json", "--data",
               "sim/events.csv", "--grid-res", "8", "--out-dir", "e3") == 2
    # a malformed --domain is a usage error, not a traceback
    assert run(workspace, "fit", "--data", "sim/events.csv", "--domain", "0-3",
               "--out-dir", "f3") == 2
    assert run(workspace, "simulate", "--domain", "a:b", "--out-dir", "s3") == 2
    assert "error: " in capsys.readouterr().err


def test_runtime_errors_exit_1(workspace, capsys):
    assert run(workspace, "fit", "--data", "no_such_file.csv",
               "--domain", "0:1", "--out-dir", "f2") == 1
    # any OSError, not only a missing file: a directory as data, a file as out-dir
    assert run(workspace, "fit", "--data", "sim", "--domain", "0:3",
               "--out-dir", "f6") == 1
    for command in (("fit", "--data", "sim/events.csv", "--domain", "0:3",
                     "--inducing", "3", "--max-iters", "3"),
                    ("simulate", "--domain", "0:3", "--grid-res", "16")):
        assert run(workspace, *command, "--out-dir", "sim/events.csv") == 1
    # a JSON file that is not a saved model
    for name, text in (("empty_object.json", "{}"), ("empty_list.json", "[]")):
        (workspace / name).write_text(text)
        capsys.readouterr()
        assert run(workspace, "evaluate", "--model", name, "--data",
                   "sim/events.csv", "--out-dir", "e9") == 1
        assert f"{name}: not a vbpp model" in capsys.readouterr().err
    assert not (workspace / "e9").exists()
    assert run(workspace, "evaluate", "--model", "fit/model.json", "--data",
               "sim/events.csv", "--split", "1.5", "--out-dir", "e4") == 1


def test_predict_names_the_file_of_a_malformed_model(workspace, capsys):
    # valid JSON whose parts do not make a model is reported with its path
    doc = json.loads((workspace / "fit" / "model.json").read_text())
    for name, change in (("short_L.json", {"L": doc["L"][:-1]}),
                         ("short_m.json", {"m": doc["m"][:-1]}),
                         ("negative_gamma.json", {"hyper": {**doc["hyper"], "gamma": -1}})):
        (workspace / name).write_text(json.dumps({**doc, **change}))
        capsys.readouterr()
        assert run(workspace, "predict", "--model", name, "--out-dir", "p9") == 1
        assert f"{name}: not a vbpp model" in capsys.readouterr().err
    assert not (workspace / "p9").exists()


def test_help_exits_zero(workspace):
    assert run(workspace, "--help") == 0


def test_rerun_byte_identical(workspace):
    commands = {
        "simulate": ("simulate", "--domain", "0:3", "--gamma", "9", "--alpha", "0.5",
                     "--grid-res", "64", "--seed", "4"),
        "fit": ("fit", "--data", "sim/events.csv", "--domain", "0:3",
                "--inducing", "4", "--max-iters", "40"),
        "predict": ("predict", "--model", "fit/model.json", "--grid-res", "16"),
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


def test_readme_commands_parse():
    # every command in README's "Command line" block parses, so a deleted
    # flag cannot live on in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("vbpp ")]
    assert [c.split()[1] for c in commands] == [
        "simulate", "fit", "predict", "evaluate", "baseline"]
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


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
