"""End-to-end acceptance checks.

Each test here is a self-contained verification of one headline numerical
guarantee, run at full tolerance against an independent oracle (numerical
quadrature, large-sample Monte Carlo, finite differences, or a rival
estimator).  One test per guarantee, so the ``pytest -v`` report reads as a
checklist.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.linalg import cho_factor, cho_solve, cholesky

from vbpp.baseline import (
    fit_bandwidth,
    ks_intensity,
    ks_log_predictive,
    ks_log_predictive_rate_form,
    truncnorm_pdf,
)
from vbpp.core import (
    InducingPoints,
    Model,
    VariationalState,
    _evaluate,
    elbo,
    elbo_and_gradient,
    expected_log_f_sq,
    qf_marginals,
)
from vbpp.kernel import HyperParams, gram, kernel_eval, psi_with_partials
from vbpp.optimizer import (
    FitConfig,
    _initial_model,
    _objective_factory,
    fit,
    pack,
    regular_grid,
    unpack,
)
from vbpp.pointdata import Domain, EventSet, coal_style_dataset, split_events
from vbpp.predictive import (
    mc_predictive,
    posterior_intensity,
    predictive_bound_l0,
    predictive_bound_lp,
)
from vbpp.simulate import ground_truth, thin_sample
from vbpp.specfun import g_tilde_batch, g_tilde_series
from vbpp.threads import pool_threads


def test_psi_integrals_match_numerical_quadrature():
    # 200 random instances, half 1-D and half 2-D, every matrix entry within
    # relative 1e-8 of direct quadrature, all inside a minute
    start = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for case in range(200):
        dims = 1 if case < 100 else 2
        lo = rng.uniform(-2, 0, dims)
        hi = lo + rng.uniform(0.5, 3, dims)
        d = Domain(lo, hi)
        h = HyperParams(gamma=rng.uniform(0.5, 5),
                        alpha=rng.uniform(0.1, 2, dims))
        Z = lo + rng.random((2, dims)) * (hi - lo)
        psi = psi_with_partials(Z, h, d)[0]
        for i in range(2):
            for j in range(i + 1):
                if dims == 1:
                    ref, _ = quad(
                        lambda x: kernel_eval([x], Z[i], h) * kernel_eval([x], Z[j], h),
                        lo[0], hi[0], epsabs=1e-13, epsrel=1e-12)
                else:
                    ref, _ = dblquad(
                        lambda y, x: kernel_eval([x, y], Z[i], h)
                        * kernel_eval([x, y], Z[j], h),
                        lo[0], hi[0], lo[1], hi[1], epsabs=1e-12, epsrel=1e-11)
                worst = max(worst, abs(psi[i, j] - ref) / abs(ref))
    assert worst <= 1e-8
    assert time.time() - start < 60


def test_gtilde_table_matches_series_oracle():
    # interpolation error under 1e-6 across ten decades, exact zero at the
    # origin, and strict monotonicity
    rng = np.random.default_rng(1)
    z = -10.0 ** rng.uniform(-4, 4, 1000)
    approx, _ = g_tilde_batch(z)
    exact = np.array([g_tilde_series(v) for v in z])
    rel = np.abs(approx - exact) / np.maximum(np.abs(exact), 1e-8)
    assert rel.max() <= 1e-6
    v0, _ = g_tilde_batch(np.array([0.0]))
    assert v0[0] == 0.0
    ordered, _ = g_tilde_batch(np.sort(z)[::-1])
    assert (np.diff(ordered) < 0).all()


def test_expected_log_square_matches_monte_carlo():
    # 20 (mu, var) pairs against 1e7-sample Monte Carlo, within 3 standard
    # errors, inside two minutes
    start = time.time()
    rng = np.random.default_rng(2)
    for case in range(20):
        mu = rng.uniform(-3, 3)
        var = rng.uniform(0.05, 5)
        sd = np.sqrt(var)
        mc = np.random.default_rng(100 + case)
        total, total_sq, n = 0.0, 0.0, 10_000_000
        for _ in range(10):
            draws = np.log((mu + sd * mc.standard_normal(1_000_000)) ** 2)
            total += draws.sum()
            total_sq += (draws**2).sum()
        mean = total / n
        se = np.sqrt((total_sq / n - mean**2) / n)
        got = expected_log_f_sq(np.array([mu]), np.array([var]))[0][0]
        assert abs(got - mean) <= 3 * se, (mu, var)
    assert time.time() - start < 120


def _random_model(rng, M, dims):
    d = Domain(np.zeros(dims), np.full(dims, 4.0))
    # jittered grid locations with lengthscales tied to the spacing keep the
    # prior covariance well conditioned, so finite differences are meaningful
    per = int(np.ceil(M ** (1.0 / dims)))
    base = regular_grid(d, [per] * dims)[:M]
    spacing = 4.0 / per
    Z = base + rng.uniform(-0.15, 0.15, base.shape) * spacing
    h = HyperParams(gamma=rng.uniform(0.5, 3),
                    alpha=(rng.uniform(0.3, 0.7, dims) * spacing) ** 2,
                    u_bar=rng.uniform(-1, 1))
    A = rng.standard_normal((M, M)) * 0.2
    L = np.tril(A)
    L[np.diag_indices(M)] = np.abs(np.diag(A)) + 0.3
    vs = VariationalState(rng.standard_normal(M), L)
    return Model(h, InducingPoints(Z), vs, d)


def test_analytic_gradient_matches_finite_differences():
    # 25 random models covering M in {2, 8} and N in {0, 5, 50}; every packed
    # coordinate (hyperparameters, variational state, inducing locations) of
    # the gradient the fit's optimiser receives within relative 1e-5 of a
    # central difference
    rng = np.random.default_rng(3)
    cfg = FitConfig(optimize_z=True)
    for case in range(25):
        M = int(rng.choice([2, 8]))
        dims = int(rng.choice([1, 2]))
        N = int(rng.choice([0, 5, 50]))
        model = _random_model(rng, M, dims)
        pts = model.domain.lo + rng.random((N, dims)) * model.domain.extent
        ev = EventSet(pts)
        y0 = pack(model, cfg)
        g = -_objective_factory(ev, model.domain, M, cfg, None, None)(y0)[1]

        def value(y):
            return elbo(unpack(y, model.domain, M, cfg, fixed_z=None), ev)

        scale = max(1.0, np.abs(g).max())
        for i in range(y0.size):
            best = np.inf
            # steps small enough that the stencil rarely straddles a knot of
            # the piecewise-linear lookup table inside the data term; the
            # minimum over steps discards the ones that do
            for step in (1e-5, 1e-6, 1e-7):
                e = np.zeros(y0.size)
                e[i] = step
                fd = (value(y0 + e) - value(y0 - e)) / (2 * step)
                denom = max(abs(g[i]), abs(fd), 1e-6 * scale)
                best = min(best, abs(g[i] - fd) / denom)
            assert best <= 1e-5, (case, i, best)


_ILL_CONDITIONED = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: the gradient loses accuracy when K_zz is "
                        "ill-conditioned (cond >= 7e8 at M >= 16 on coal)")


@pytest.mark.parametrize("optimize_z", [False, True])
@pytest.mark.parametrize("M", [8, pytest.param(16, marks=_ILL_CONDITIONED),
                               pytest.param(32, marks=_ILL_CONDITIONED)])
def test_gradient_blocks_match_finite_differences_at_coal_start(M, optimize_z):
    # the fit's own starting point on the bundled data: each block's analytic
    # directional derivative along its unit gradient within relative 1e-4 of a
    # central difference through pack / unpack
    events, d = coal_style_dataset()
    cfg = FitConfig(optimize_z=optimize_z)
    Z = regular_grid(d, M)
    model = _initial_model(events, d, Z)
    wrt = ("log_gamma", "log_alpha", "u_bar", "m", "L") + (("Z",) if optimize_z else ())
    _, grads = elbo_and_gradient(model, events, wrt=wrt)
    y0 = pack(model, cfg)

    def value(y):
        return elbo(unpack(y, d, M, cfg, fixed_z=None if optimize_z else Z), events)

    start = 0
    for name in wrt:
        g = np.ravel(grads[name])
        v = np.zeros(y0.size)
        v[start:start + g.size] = g
        start += g.size
        norm = np.linalg.norm(v)
        if norm == 0.0:          # u_bar's gradient vanishes at this point
            continue
        v /= norm
        best = min(abs((value(y0 + h * v) - value(y0 - h * v)) / (2 * h) - norm) / norm
                   for h in (1e-4, 1e-5, 1e-6))
        assert best <= 1e-4, (name, best)
    assert start == y0.size


_EXPLICIT_INVERSE = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: the bound takes its q(f) marginals through an "
                        "explicit K_zz^-1, which loses accuracy when K_zz is ill-conditioned")


@pytest.mark.parametrize("M", [8, pytest.param(16, marks=_EXPLICIT_INVERSE),
                               pytest.param(32, marks=_EXPLICIT_INVERSE)])
def test_bound_data_term_matches_cholesky_marginals_at_coal_start(M):
    # the fit's own starting point on the bundled data: the bound's data term
    # within relative 1e-10 of the same sum over qf_marginals' Cholesky solves
    events, d = coal_style_dataset()
    model = _initial_model(events, d, regular_grid(d, M))
    ell, _ = expected_log_f_sq(*qf_marginals(events.points, model))
    assert _evaluate(model, events).data == pytest.approx(float(np.sum(ell)), rel=1e-10)


def _mc_log_evidence(model, events, grid_cells, n_samples, seed):
    """Simple Monte Carlo estimate of the marginal likelihood under the
    model's own prior: sample f jointly at the events and a midpoint grid,
    average the exponentiated Poisson log-likelihood."""
    d = model.domain
    h = model.hyper
    width = d.extent[0] / grid_cells
    grid = (d.lo[0] + (np.arange(grid_cells) + 0.5) * width)[:, None]
    pts = np.vstack([events.points, grid]) if events.n else grid
    Z = model.inducing.Z
    Kzz = gram(Z, Z, h)
    Kzz[np.diag_indices(Z.shape[0])] += 1e-8 * h.gamma
    mean = gram(pts, Z, h) @ cho_solve(cho_factor(Kzz, lower=True),
                                       np.full(Z.shape[0], h.u_bar))
    K = gram(pts, pts, h)
    jitter = 1e-8 * h.gamma
    while True:
        try:
            C = cholesky(K + jitter * np.eye(K.shape[0]), lower=True)
            break
        except np.linalg.LinAlgError:
            jitter *= 100.0
    rng = np.random.default_rng(seed)
    lls = np.empty(n_samples)
    done = 0
    while done < n_samples:
        chunk = min(2000, n_samples - done)
        f = mean[:, None] + C @ rng.standard_normal((pts.shape[0], chunk))
        lam_ev = f[:events.n] ** 2
        integral = (f[events.n:] ** 2).sum(axis=0) * width
        with np.errstate(divide="ignore"):
            lls[done:done + chunk] = np.log(lam_ev).sum(axis=0) - integral
        done += chunk
    shift = lls.max()
    w = np.exp(lls - shift)
    log_z = shift + np.log(w.mean())
    se = w.std() / (w.mean() * np.sqrt(n_samples))
    return log_z, se


def test_training_bound_sits_below_monte_carlo_evidence():
    # on five tiny 1-D problems the optimised objective never exceeds a
    # 100k-sample estimate of the log marginal likelihood (plus 3 SE)
    rng = np.random.default_rng(77)
    for case in range(5):
        extent = rng.uniform(0.8, 1.6)
        d = Domain([0.0], [extent])
        n = int(rng.integers(2, 6))
        ev = EventSet(np.sort(rng.uniform(0, extent, n))[:, None])
        model = fit(ev, d, 5, FitConfig())
        log_z, se = _mc_log_evidence(model, ev, 2048, 100_000, seed=1000 + case)
        bound = elbo(model, ev)
        assert bound <= log_z + 3 * se, (case, bound, log_z, se)


def test_predictive_bounds_hold_and_collapsed_gap_is_tighter():
    # on the bundled data, for several inducing-grid sizes, both analytic
    # bounds stay below their Monte Carlo counterparts and the collapsed
    # bound leaves the smaller gap
    ev, d = coal_style_dataset()
    train, test = split_events(ev, 0.5, seed=42)
    for M in (5, 10, 20):
        model = fit(train, d, M, FitConfig())
        lp = predictive_bound_lp(model, test)
        l0 = predictive_bound_l0(model, test)
        mp, mp_se = mc_predictive(model, test, "Mp", 4000, 4096, seed=1)
        m0, m0_se = mc_predictive(model, test, "M0", 4000, 4096, seed=1)
        assert lp <= mp + 3 * mp_se, M
        assert l0 <= m0 + 3 * m0_se, M
        assert (m0 - l0) < (mp - lp), M


def test_bound_evaluation_scales_linearly_in_events():
    # wall-clock of a bound-plus-gradient evaluation at fixed M against the
    # number of events: log-log slope within 15% of 1
    start = time.time()
    d = Domain([0.0], [10.0])
    rng = np.random.default_rng(4)
    warm = EventSet(rng.uniform(0, 10, 200)[:, None])
    model = fit(warm, d, 32, FitConfig(max_iters=5))
    sizes = [1_000, 3_000, 10_000, 30_000, 100_000]
    times = []
    for n in sizes:
        ev = EventSet(rng.uniform(0, 10, n)[:, None])
        reps = int(min(max(3, 300_000 // n), 10))
        elbo_and_gradient(model, ev)  # warm caches before timing
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            elbo_and_gradient(model, ev)
            samples.append(time.perf_counter() - t0)
        times.append(np.median(samples))
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    # BLAS thread counts name the usual cause of a flat slope: small products
    # waking a thread pool pay a fixed cost that hides the linear work
    assert 0.85 <= slope <= 1.15, (slope, times, pool_threads())
    assert time.time() - start < 300


def test_recovers_synthetic_intensities_better_than_smoothing_baseline():
    # ten synthetic ground truths; the variational fit must beat the
    # kernel-smoothing baseline on held-out likelihood and on intensity RMSE
    # for at least eight of them, inside ten minutes
    start = time.time()
    h = HyperParams(gamma=16.0, alpha=np.array([4.0]), u_bar=2.0)
    d = Domain([0.0], [10.0])
    ll_wins = 0
    rmse_wins = 0
    for seed in range(10):
        truth = ground_truth(h, d, link="square", resolution=512, seed=seed)
        train = thin_sample(truth, d, seed=seed * 100)
        tests = [thin_sample(truth, d, seed=seed * 100 + k + 1) for k in range(5)]
        model = fit(train, d, 16, FitConfig())
        ks = fit_bandwidth(train, d)
        vb_ll = np.mean([predictive_bound_l0(model, t) for t in tests])
        ks_ll = np.mean([ks_log_predictive(ks, t, d) for t in tests])
        vb_rate, _, _ = posterior_intensity(model, truth.grid)
        ks_rate = ks_intensity(ks, truth.grid, d)
        vb_rmse = np.sqrt(np.mean((vb_rate - truth.lambda_values) ** 2))
        ks_rmse = np.sqrt(np.mean((ks_rate - truth.lambda_values) ** 2))
        ll_wins += vb_ll > ks_ll
        rmse_wins += vb_rmse < ks_rmse
    assert ll_wins >= 8, ll_wins
    assert rmse_wins >= 8, rmse_wins
    assert time.time() - start < 600


def test_baseline_likelihood_routes_agree_and_kernels_normalise():
    # the direct predictive-density route and the generic Poisson-rate route
    # agree to 1e-10 on 50 random instances; boundary-corrected kernels carry
    # unit mass to 1e-6
    rng = np.random.default_rng(5)
    for case in range(50):
        dims = 1 if case % 2 == 0 else 2
        lo = rng.uniform(-1, 0, dims)
        hi = lo + rng.uniform(1, 4, dims)
        d = Domain(lo, hi)
        train = EventSet(lo + rng.random((int(rng.integers(5, 30)), dims)) * (hi - lo))
        test = EventSet(lo + rng.random((int(rng.integers(3, 15)), dims)) * (hi - lo))
        model = fit_bandwidth(train, d)
        a = ks_log_predictive(model, test, d)
        b = ks_log_predictive_rate_form(model, test, d)
        assert abs(a - b) <= 1e-10, case
    for _ in range(20):
        lo = rng.uniform(-1, 0)
        hi = lo + rng.uniform(1, 3)
        d = Domain([lo], [hi])
        center = rng.uniform(lo, hi)
        sigma = rng.uniform(0.05, 2)
        mass, _ = quad(lambda x: truncnorm_pdf([x], [center], [sigma], d),
                       lo, hi, epsabs=1e-10, epsrel=1e-9)
        assert abs(mass - 1.0) <= 1e-6


def test_bound_plateaus_once_inducing_grid_is_dense_enough():
    # on the bundled data the held-out collapsed bound moves by under 2 nats
    # between a 10-point and a 30-point inducing grid
    ev, d = coal_style_dataset()
    train, test = split_events(ev, 0.5, seed=42)
    vals = {}
    for M in (10, 30):
        model = fit(train, d, M, FitConfig())
        vals[M] = predictive_bound_l0(model, test)
    assert abs(vals[10] - vals[30]) < 2.0, vals


def test_cli_reruns_are_byte_identical(tmp_path):
    from vbpp.cli import main

    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert main(["simulate", "--domain", "0:4", "--gamma", "9",
                     "--grid-res", "256", "--seed", "3", "--out-dir", "sim"]) == 0
        for rep in ("a", "b"):
            assert main(["fit", "--data", "sim/events.csv", "--domain", "0:4",
                         "--inducing", "6", "--out-dir", f"fit_{rep}"]) == 0
            assert main(["evaluate", "--model", f"fit_{rep}/model.json",
                         "--data", "sim/events.csv", "--samples", "500",
                         "--baseline", "--out-dir", f"eval_{rep}"]) == 0
    finally:
        os.chdir(cwd)
    for stage in ("fit", "eval"):
        a, b = tmp_path / f"{stage}_a", tmp_path / f"{stage}_b"
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            if name.endswith("manifest.json") or name == "report.json":
                # manifests echo the per-run paths; compare them field-wise
                da = json.loads((a / name).read_text())
                db = json.loads((b / name).read_text())
                for doc in (da, db):
                    doc.get("config", doc).pop("model", None)
                assert da == db, name
            else:
                assert (a / name).read_bytes() == (b / name).read_bytes(), name
