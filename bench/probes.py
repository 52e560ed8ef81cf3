"""Layer probes: each layer's public function called directly on the
workload's own fitted model and events, timed as the median of repeats after
one warm-up call."""

from __future__ import annotations

import statistics
import time


def median_ms(fn, repeats: int = 11) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def run(model, events, train, test, ks_sigma, mc_grid, seed: int) -> tuple[dict, list[str]]:
    """Returns (metrics, notes); a probe whose function is gone reads 0."""
    from vbpp import baseline, core, kernel, optimizer, predictive, specfun

    X, Z, h, d = events.points, model.inducing.Z, model.hyper, model.domain
    M = Z.shape[0]
    # No workload optimises the inducing points, so the omega block never applies.
    blocks = [b for b in core.GRAD_BLOCKS if b != "omega"]

    def one_eval():
        cfg = optimizer.FitConfig()
        y = optimizer.pack(model, cfg)
        return lambda: core.elbo_and_gradient(
            optimizer.unpack(y, d, M, cfg, fixed_z=Z), events, wrt=blocks)

    def gtilde():
        mu, var = core.qf_marginals(X, model)
        zeta = -mu**2 / (2.0 * var)
        return lambda: specfun.g_tilde_batch(zeta)

    def table_build_s():
        return 1e-3 * median_ms(specfun.build_table, repeats=3)

    probes = {
        "kernel.gram_xz_ms": lambda: median_ms(lambda: kernel.gram(X, Z, h)),
        "kernel.psi_partials_ms": lambda: median_ms(lambda: kernel.psi_with_partials(Z, h, d)),
        "specfun.gtilde_batch_ms": lambda: median_ms(gtilde()),
        "specfun.table_build_s": table_build_s,
        "core.elbo_ms": lambda: median_ms(lambda: core.elbo(model, events)),
        **{f"core.grad.{b}_ms": (lambda b=b: median_ms(
            lambda: core.elbo_and_gradient(model, events, wrt=(b,)))) for b in blocks},
        "optimizer.eval_ms": lambda: median_ms(one_eval()),
        "predictive.mc_Mp_ms": lambda: median_ms(
            lambda: predictive.mc_predictive(model, test, "Mp", 512, mc_grid, seed=seed),
            repeats=3),
        "baseline.loo_eval_ms": lambda: median_ms(
            lambda: baseline.loo_objective(train, ks_sigma, d, True)),
    }
    out, notes = {}, []
    for name, probe in probes.items():
        try:
            out[name] = float(probe())
        except (AttributeError, TypeError) as exc:
            out[name] = 0.0
            notes.append(f"probe {name} unavailable: {exc}")
    return out, notes
