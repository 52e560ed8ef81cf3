"""vbpp's layer boundaries for the traced run, and the per-layer metrics
computed from the spans recorded there.

The layers are the modules of the package.  Each wrapped name is replaced in
every module namespace that binds it (see ``spans.Recorder.patch``), so calls
made through ``from .x import f`` are traced as well as calls made through a
module attribute.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from spans import Span, self_times

# Exceptions the optimiser's objective turns into a rejected step.
REJECTED = ("LinAlgError", "FloatingPointError")

CLI_COMMANDS = ("simulate", "fit", "predict", "evaluate")
BOUND_SPANS = ("core.elbo", "core._bound_value", "core.kl_qu_pu")


def install(recorder) -> list[str]:
    """Wrap every layer boundary; returns the names that were not found."""
    from vbpp import (baseline, cli, core, kernel, optimizer, pointdata, predictive, simulate,
                      specfun)

    edge = -float(specfun.default_table().knots[-1])   # |z| beyond the lookup table

    def gtilde_info(args, kwargs, result):
        t = -np.asarray(args[0] if args else kwargs["z"], dtype=float)
        return {"points": int(t.size), "beyond": int(np.count_nonzero(t > edge))}

    def fit_info(args, kwargs, result):
        meta = result.fit_metadata or {}
        return {"n": args[0].n, "iterations": meta.get("iterations", 0),
                "converged": bool(meta.get("converged"))}

    def eval_info(args, kwargs, result):
        return {"n": args[1].n, "finite": bool(np.isfinite(result[0]))}

    targets = [
        (cli, "main", "cli.main", lambda a, k, r: {"command": (a[0] if a else k["argv"])[0]}),
        (optimizer, "fit", "optimizer.fit", fit_info),
        (optimizer, "unpack", "optimizer.unpack", None),
        (core, "elbo_and_gradient", "core.eval", eval_info),
        (core.Model, "__post_init__", "core.model_init", None),
        (core, "elbo", "core.elbo", None),
        (core, "_bound_value", "core._bound_value", None),
        (core, "kl_qu_pu", "core.kl_qu_pu", None),
        (core, "qf_marginals", "core.qf_marginals", None),
        (kernel, "gram", "kernel.gram", lambda a, k, r: {"entries": int(r.size)}),
        (kernel, "psi_matrix", "kernel.psi", None),
        (kernel, "psi_with_partials", "kernel.psi", None),
        (specfun, "g_tilde_batch", "specfun.g_tilde_batch", gtilde_info),
        (predictive, "mc_predictive", "predictive.mc", None),
        (predictive, "_joint_qf", "predictive.joint_qf",
         lambda a, k, r: {"points": int(a[1].shape[0])}),
        (predictive, "predictive_bound_lp", "predictive.bounds", None),
        (predictive, "predictive_bound_l0", "predictive.bounds", None),
        (predictive, "posterior_intensity", "predictive.intensity", None),
        (baseline, "fit_bandwidth", "baseline.fit_bandwidth",
         lambda a, k, r: {"train_n": a[0].n}),
        (baseline, "loo_objective", "baseline.loo", None),
        (simulate, "ground_truth", "simulate.ground_truth",
         lambda a, k, r: {"grid_points": int(r.grid.shape[0])}),
        (simulate, "thin_sample", "simulate.thin", lambda a, k, r: {"events": r.n}),
        (pointdata, "load_events", "pointdata.load_events", None),
    ]
    missing = []
    for owner, attr, name, info in targets:
        if hasattr(owner, attr):
            recorder.patch(owner, attr, name, info)
        else:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return missing


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times (seconds unless the name says otherwise)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name):
        return float(sum(spans[i].duration for i in by_name[name]))

    def self_total(name, where=lambda s: True):
        return float(sum(selfs[i] for i in by_name[name] if where(spans[i])))

    def info_sum(name, key):
        return sum(spans[i].info.get(key, 0) for i in by_name[name])

    def outermost(names):
        """Total time of spans in ``names`` not nested in another of them."""
        out = 0.0
        for name in names:
            for i in by_name[name]:
                p = spans[i].parent
                while p is not None and spans[p].name not in names:
                    p = spans[p].parent
                if p is None:
                    out += spans[i].duration
        return out

    evals = [spans[i] for i in by_name["core.eval"]]
    unpacks = [spans[i] for i in by_name["optimizer.unpack"]]
    n_evals = len(evals) + sum(1 for s in unpacks if s.error in REJECTED)
    rejected = sum(1 for s in evals + unpacks if s.error in REJECTED) \
        + sum(1 for s in evals if s.info.get("finite") is False)
    iterations = info_sum("optimizer.fit", "iterations")
    fits = [spans[i] for i in by_name["optimizer.fit"]]
    eval_events = sum(s.info.get("n", 0) for s in evals)
    gram_entries = info_sum("kernel.gram", "entries")
    g_points = info_sum("specfun.g_tilde_batch", "points")
    g_beyond = info_sum("specfun.g_tilde_batch", "beyond")
    joint_points = [spans[i].info.get("points", 0) for i in by_name["predictive.joint_qf"]]

    m = {
        "optimizer.iterations": float(iterations),
        "optimizer.objective_evals": float(n_evals),
        "optimizer.evals_per_iter": _ratio(n_evals, iterations),
        "optimizer.rejected_evals": float(rejected),
        "optimizer.unpack_s": total("optimizer.unpack"),
        "optimizer.self_s": self_total("optimizer.fit"),
        "optimizer.converged": float(bool(fits) and all(s.info.get("converged") for s in fits)),
        "core.eval_calls": float(len(evals)),
        "core.eval_self_s": self_total("core.eval"),
        "core.eval_ms_p50": 1e3 * statistics.median([s.duration for s in evals] or [0.0]),
        "core.eval_us_per_event": _ratio(total("core.eval"), eval_events, 1e6),
        "core.bound_s": outermost(BOUND_SPANS),
        "core.qf_marginals_s": total("core.qf_marginals"),
        "kernel.gram_calls": float(len(by_name["kernel.gram"])),
        "kernel.gram_s": total("kernel.gram"),
        "kernel.gram_entries": float(gram_entries),
        "kernel.gram_ns_per_entry": _ratio(total("kernel.gram"), gram_entries, 1e9),
        "kernel.psi_s": total("kernel.psi"),
        "specfun.gtilde_calls": float(len(by_name["specfun.g_tilde_batch"])),
        "specfun.gtilde_points": float(g_points),
        "specfun.gtilde_s": total("specfun.g_tilde_batch"),
        "specfun.gtilde_ns_per_point": _ratio(total("specfun.g_tilde_batch"), g_points, 1e9),
        "specfun.beyond_table_frac": _ratio(g_beyond, g_points),
        "predictive.mc_s": total("predictive.mc"),
        "predictive.joint_points": float(max(joint_points, default=0)),
        "predictive.bounds_s": total("predictive.bounds"),
        "predictive.intensity_s": total("predictive.intensity"),
        "baseline.fit_bandwidth_s": total("baseline.fit_bandwidth"),
        "baseline.loo_evals": float(len(by_name["baseline.loo"])),
        "baseline.train_n": float(info_sum("baseline.fit_bandwidth", "train_n")),
        "simulate.ground_truth_s": total("simulate.ground_truth"),
        "simulate.thin_s": total("simulate.thin"),
        "simulate.grid_points": float(info_sum("simulate.ground_truth", "grid_points")),
        "simulate.events": float(info_sum("simulate.thin", "events")),
        "pointdata.load_events_s": total("pointdata.load_events"),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = self_total(
            "cli.main", lambda s, c=cmd: s.info.get("command") == c)
    return m
