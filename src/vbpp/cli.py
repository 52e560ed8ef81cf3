"""Command-line front-end: simulate | fit | predict | evaluate | baseline.

Every command writes a manifest JSON beside its outputs echoing the fully
resolved configuration, and is deterministic given that manifest.  predict is
the one command that writes the posterior intensity map (intensity.csv);
evaluate writes the held-out scores (report.json), sizes its quadrature from
the model and records the node count there.
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
from .optimizer import FitConfig, default_map_prior, fit
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


def _write_manifest(args, **resolved) -> None:
    """Echo the parsed arguments, with ``resolved`` values in place of their
    defaults, to <out_dir>/<command>_manifest.json."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out_dir")}
    write_json({"command": args.command, "config": {**config, **resolved}},
               os.path.join(args.out_dir, f"{args.command}_manifest.json"))


def cmd_simulate(args) -> int:
    d = parse_domain(args.domain)
    alpha = [float(a) for a in args.alpha.split(",")] if args.alpha else \
        [(e / 5.0) ** 2 for e in d.extent]
    if len(alpha) != d.dims:
        raise argparse.ArgumentTypeError(
            f"--alpha has {len(alpha)} values for a {d.dims}-dimensional domain")
    if args.link == "sigmoid" and args.lambda_star is None:
        raise argparse.ArgumentTypeError("--lambda-star is required for the sigmoid link")
    h = HyperParams(gamma=args.gamma, alpha=np.asarray(alpha))
    truth = ground_truth(h, d, link=args.link, lambda_star=args.lambda_star,
                         resolution=args.grid_res, seed=args.seed)
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
    cfg = FitConfig(max_iters=args.max_iters, grad_tol=args.grad_tol,
                    optimize_z=args.optimize_z,
                    map_prior=default_map_prior(events, d) if args.map else None)
    model = fit(events, d, args.inducing, cfg)

    os.makedirs(args.out_dir, exist_ok=True)
    save_model(model, os.path.join(args.out_dir, "model.json"))
    meta = model.fit_metadata
    write_csv(os.path.join(args.out_dir, "trace.csv"),
              [[i, float(val)] for i, val in enumerate(meta["trace"])],
              header=["iteration", "objective"])
    _write_manifest(args)
    print(f"fit: N={events.n}, M={model.num_inducing}, "
          f"objective={meta['objective']:.4f}, iterations={meta['iterations']}")
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
    model = load_model(args.model)
    d = model.domain
    train = None
    if args.data is None:
        test = load_events(args.test, d)
    else:
        events = load_events(args.data, d)
        train, test = split_events(events, args.split, args.split_seed)

    report = predictive_report(model, test, n_samples=args.samples, seed=args.seed)
    doc = report.to_dict()
    doc["n_test"] = test.n

    if args.baseline:
        if train is None:
            if not args.train:
                raise argparse.ArgumentTypeError("--baseline needs --train or --data/--split")
            train = load_events(args.train, d)
        ks = fit_bandwidth(train, d)
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
    p.add_argument("--link", choices=["square", "sigmoid"], default="square")
    p.add_argument("--lambda-star", type=float, default=None,
                   help="intensity scale, required for the sigmoid link")
    p.add_argument("--gamma", type=float, default=100.0)
    p.add_argument("--alpha", default=None, help="comma-separated per-dimension scales")
    p.add_argument("--grid-res", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit the variational model")
    p.add_argument("--data", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--inducing", "--inducing-per-dim", type=int, default=16,
                   help="inducing points per dimension, on a regular grid")
    p.add_argument("--optimize-z", action="store_true",
                   help="also optimise the inducing locations, kept inside the domain "
                        "by box bounds")
    p.add_argument("--max-iters", type=int, default=FitConfig.max_iters)
    p.add_argument("--grad-tol", type=float, default=FitConfig.grad_tol)
    p.add_argument("--map", action="store_true")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="posterior intensity over a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--grid-res", type=int, default=None)
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
    p.add_argument("--samples", type=int, default=10_000)
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
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
