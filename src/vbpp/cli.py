"""Command-line front-end: simulate | fit | predict | evaluate | baseline.

simulate draws a square-link ground truth (lambda = f^2) and thins events
from it; fit maximises the variational bound of the same model.  Every
command writes a manifest JSON beside its outputs echoing the fully resolved
configuration, and is deterministic given that manifest.  predict is the one
command that writes the posterior intensity map (intensity.csv); evaluate
writes the held-out scores (report.json), sizes its quadrature from the model
and records the node count there.
The BLAS thread policy applies when the package is imported (see ``vbpp.threads``).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .baseline import fit_bandwidth, ks_log_predictive, loo_objective, save_ks_model
from .core import load_model, save_model
from .kernel import HyperParams
from .optimizer import FitConfig, fit
from .pointdata import Domain, load_events, save_events, split_events, write_csv, write_json
from .predictive import posterior_intensity, predictive_report
from .simulate import ground_truth, make_grid, save_ground_truth, thin_sample


def parse_domain(spec: str):
    """Parse 'lo1:hi1[,lo2:hi2,...]' into a Domain."""
    lo, hi = [], []
    for part in spec.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise argparse.ArgumentTypeError(f"bad domain component {part!r}, expected lo:hi")
        try:
            lo.append(float(pieces[0]))
            hi.append(float(pieces[1]))
        except ValueError:
            raise argparse.ArgumentTypeError(f"non-numeric domain component {part!r}")
    return Domain(lo=lo, hi=hi)


def positive_int(spec: str) -> int:
    """Parse an integer >= 1; argparse reports anything else as a usage error."""
    value = int(spec)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {spec!r}")
    return value


def floats(spec: str) -> list[float]:
    """Parse 'a1[,a2,...]'; argparse reports a ValueError as a usage error."""
    return [float(part) for part in spec.split(",")]


def _write_manifest(args, **resolved) -> None:
    """Echo the parsed arguments, with ``resolved`` values in place of their
    defaults, to <out_dir>/<command>_manifest.json."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out_dir")}
    write_json({"command": args.command, "config": {**config, **resolved}},
               os.path.join(args.out_dir, f"{args.command}_manifest.json"))


def cmd_simulate(args) -> int:
    d = parse_domain(args.domain)
    alpha = args.alpha or [(e / 5.0) ** 2 for e in d.extent]
    if len(alpha) != d.dims:
        raise argparse.ArgumentTypeError(
            f"--alpha has {len(alpha)} values for a {d.dims}-dimensional domain")
    h = HyperParams(gamma=args.gamma, alpha=np.asarray(alpha))
    truth = ground_truth(h, d, resolution=args.grid_res, seed=args.seed)
    events = thin_sample(truth, d, seed=args.seed)

    os.makedirs(args.out_dir, exist_ok=True)
    save_events(events, os.path.join(args.out_dir, "events.csv"))
    save_ground_truth(truth, os.path.join(args.out_dir, "truth.csv"))
    _write_manifest(args, alpha=alpha)
    print(f"simulated {events.n} events "
          f"(integral of lambda = {truth.integrated_rate():.2f})")
    return 0


def cmd_fit(args) -> int:
    d = parse_domain(args.domain)
    events = load_events(args.data, d)
    cfg = FitConfig(max_iters=args.max_iters, optimize_z=args.optimize_z)
    model = fit(events, d, args.inducing, cfg)

    os.makedirs(args.out_dir, exist_ok=True)
    save_model(model, os.path.join(args.out_dir, "model.json"))
    meta = model.fit_metadata
    write_csv(os.path.join(args.out_dir, "trace.csv"),
              [[i, float(val)] for i, val in enumerate(meta["trace"])],
              header=["iteration", "objective"])
    _write_manifest(args)
    print(f"fit: N={events.n}, M={model.num_inducing}, elbo={meta['elbo']:.4f}, "
          f"iterations={meta['iterations']}, evaluations={meta['evaluations']}, "
          f"inner steps={meta['inner_steps']}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    grid, _ = make_grid(model.domain, args.grid_res)
    mean, lower, upper = posterior_intensity(model, grid)
    os.makedirs(args.out_dir, exist_ok=True)
    write_csv(os.path.join(args.out_dir, "intensity.csv"),
              np.column_stack([grid, mean, lower, upper]).tolist(),
              header=[f"x{r}" for r in range(grid.shape[1])] + ["mean", "lower", "upper"])
    _write_manifest(args)
    print(f"wrote intensity over {grid.shape[0]} grid points")
    return 0


def cmd_evaluate(args) -> int:
    if args.data is not None and args.train is not None:
        raise argparse.ArgumentTypeError("--train conflicts with --data: the split "
                                         "supplies the training events")
    if args.baseline and args.data is None and args.train is None:
        raise argparse.ArgumentTypeError("--baseline needs --train or --data/--split")
    model = load_model(args.model)
    d = model.domain
    if args.data is None:
        test = load_events(args.test, d)
        train = load_events(args.train, d) if args.baseline else None
    else:
        events = load_events(args.data, d)
        train, test = split_events(events, args.split, args.split_seed)

    # the baseline first: a training part it cannot fit fails before the Monte Carlo
    ks = fit_bandwidth(train, d) if args.baseline else None
    report = predictive_report(model, test, n_samples=args.samples, seed=args.seed)
    doc = report.to_dict()
    doc["n_test"] = test.n

    if ks is not None:
        doc["ks_log_predictive"] = ks_log_predictive(ks, test, d)
        doc["ks_sigma"] = ks.sigma.tolist()

    os.makedirs(args.out_dir, exist_ok=True)
    write_json(doc, os.path.join(args.out_dir, "report.json"))
    _write_manifest(args)
    print(f"l_p={report.l_p:.4f} l_0={report.l_0:.4f} "
          f"m_p={report.m_p_hat:.4f}+-{report.m_p_stderr:.4f} "
          f"m_0={report.m_0_hat:.4f}+-{report.m_0_stderr:.4f}")
    return 0


def cmd_baseline(args) -> int:
    d = parse_domain(args.domain)
    train = load_events(args.data, d)
    ks = fit_bandwidth(train, d)
    os.makedirs(args.out_dir, exist_ok=True)
    save_ks_model(ks, os.path.join(args.out_dir, "ks_model.json"), train_ref=args.data)
    _write_manifest(args)
    obj = loo_objective(train, ks.sigma, d)
    print(f"bandwidth sigma={ks.sigma.tolist()} (LOO objective {obj:.4f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbpp",
        description="Gaussian-process-modulated Poisson process intensity estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a ground-truth intensity and events")
    p.add_argument("--domain", required=True)
    p.add_argument("--gamma", type=float, default=100.0)
    p.add_argument("--alpha", type=floats, default=None,
                   help="comma-separated per-dimension scales")
    p.add_argument("--grid-res", type=positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit the variational model")
    p.add_argument("--data", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--inducing", "--inducing-per-dim", type=positive_int, default=16,
                   help="inducing points per dimension, on a regular grid")
    p.add_argument("--optimize-z", action="store_true",
                   help="also optimise the inducing locations, kept inside the domain "
                        "by box bounds")
    p.add_argument("--max-iters", type=positive_int, default=FitConfig.max_iters)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="posterior intensity over a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--grid-res", type=positive_int, default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="held-out predictive bounds and MC estimates "
                                        "(report.json only; predict draws the map)")
    p.add_argument("--model", required=True)
    held_out = p.add_mutually_exclusive_group(required=True)
    held_out.add_argument("--test", default=None)
    held_out.add_argument("--data", default=None, help="single file to split into train/test")
    p.add_argument("--train", default=None, help="training events for --baseline")
    p.add_argument("--split", type=float, default=0.5)
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--samples", type=positive_int, default=1_000,
                   help="importance-sampling draws per Monte Carlo mode")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--baseline", action="store_true")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="kernel-smoothing bandwidth fit")
    p.add_argument("--data", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:     # a usage error found after parsing
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
