import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from vbpp.core import (
    VAR_FLOOR,
    InducingPoints,
    Model,
    VariationalState,
    _evaluate,
    elbo,
    expected_log_f_sq,
    gauss_legendre,
    kzz_factor,
    node_count,
    qf_marginals,
)
from vbpp.kernel import HyperParams, gram
from vbpp.optimizer import FitConfig, fit
from vbpp.pointdata import Domain, EventSet, PointDataError, regular_grid
from vbpp.predictive import (
    _joint_qf,
    _mc_estimates,
    _pivoted_cholesky,
    mc_predictive,
    posterior_intensity,
    predictive_bound_l0,
    predictive_bound_lp,
    predictive_report,
)


@pytest.fixture(scope="module")
def fitted():
    d = Domain([0.0], [5.0])
    rng = np.random.default_rng(21)
    ev = EventSet(np.sort(rng.uniform(0, 5, 24))[:, None])
    return fit(ev, d, 6, FitConfig()), ev, d


@pytest.fixture(scope="module")
def dispersed(fitted):
    """The fitted fixture's events and domain with a model that keeps q(u)'s
    dispersion and a lengthscale of half the domain: the fit itself reaches
    a nearly constant intensity with S near 0 there."""
    _, ev, d = fitted
    h = HyperParams(gamma=1.0, alpha=np.array([4.0]), u_bar=2.0)
    Z = regular_grid(d, 6)
    L = 0.5 * kzz_factor(Z, h)[1]
    return Model(h, InducingPoints(Z), VariationalState(np.full(6, 2.0), L), d), ev, d


def test_lp_equals_elbo_plus_kl(fitted):
    model, ev, _ = fitted
    assert predictive_bound_lp(model, ev) == pytest.approx(
        elbo(model, ev) + _evaluate(model).kl, rel=1e-12)


def test_bounds_on_empty_test_set(fitted):
    model, _, _ = fitted
    empty = EventSet(np.empty((0, 1)))
    lp = predictive_bound_lp(model, empty)
    assert lp < 0  # just the negated integral terms
    assert predictive_bound_l0(model, empty) >= lp


def test_l0_equals_lp_when_s_collapses():
    d = Domain([0.0], [2.0])
    h = HyperParams(gamma=1.0, alpha=np.array([0.5]), u_bar=1.0)
    Z = np.linspace(0.3, 1.7, 3)[:, None]
    model = Model(h, InducingPoints(Z),
                  VariationalState(np.array([1.0, 0.8, 1.2]), 1e-6 * np.eye(3)), d)
    ev = EventSet(np.array([[0.5], [1.5]]))
    assert predictive_bound_l0(model, ev) == pytest.approx(
        predictive_bound_lp(model, ev), abs=1e-4)


def test_mc_duplicate_events_draw_from_a_singular_covariance(fitted):
    # a repeated test event makes the joint covariance exactly singular: no
    # jitter is needed, the rank falls below P, and the two events' f agree
    # in every draw f = mean + G e
    model, ev, d = fitted
    dup = EventSet(np.vstack([ev.points, ev.points[3:4]]))
    points = np.vstack([dup.points, gauss_legendre(d, [8])[0]])
    estimates, rank, _ = _mc_estimates(model, dup, 700, 8, seed=2)
    assert rank < points.shape[0]
    assert all(np.isfinite(e).all() for e in estimates.values())

    mean, cov, _ = _joint_qf(model, points)
    c, rank, order = _pivoted_cholesky(cov)
    G = np.tril(c[:, :rank])[order]
    f = mean[:, None] + G @ np.random.default_rng(0).standard_normal((rank, 512))
    assert np.allclose(f[dup.n - 1], f[3], rtol=1e-9, atol=0)

    cov[1, 0] = np.nan
    with pytest.raises(ValueError):
        _pivoted_cholesky(cov)


def test_pivoted_factor_reconstructs_the_joint_covariance(fitted):
    # G G^T gives back the covariance it factors (its lower triangle, which
    # the factor reads), below full rank on the fitted model and at full rank
    # for a few points that a short lengthscale keeps independent
    model, ev, d = fitted
    far = Model(HyperParams(gamma=2.0, alpha=np.array([1e-3]), u_bar=0.0),
                InducingPoints(np.linspace(0.5, 4.5, 3)[:, None]),
                VariationalState(np.array([0.3, -0.2, 0.5]), 0.1 * np.eye(3)), d)
    cases = ((model, np.vstack([ev.points, gauss_legendre(d, [8])[0]]), False),
             (far, np.array([[0.1], [1.2], [2.9], [4.9]]), True))
    for m, points, full in cases:
        _, cov, _ = _joint_qf(m, points)
        lower = np.tril(cov) + np.tril(cov, -1).T
        c, rank, order = _pivoted_cholesky(cov)
        G = np.tril(c[:, :rank])[order]           # cov = G G^T in point order
        assert (rank == points.shape[0]) == full
        assert np.abs(G @ G.T - lower).max() <= 1e-9 * cov.diagonal().max()


def jittered_cholesky(K, jitter, tries):
    """scipy's lower Cholesky factor of K plus the smallest of ``tries``
    jitters, growing 100-fold from ``jitter``, that works; the factor and
    that jitter."""
    eye = np.eye(K.shape[0])
    for attempt in range(tries):
        try:
            return scipy.linalg.cholesky(K + jitter * eye, lower=True), jitter
        except np.linalg.LinAlgError:
            if attempt == tries - 1:
                raise
            jitter *= 100.0


def test_joint_qf_factors_the_qstar_covariance(fitted):
    model, ev, d = fitted
    points = np.vstack([ev.points, np.linspace(d.lo[0], d.hi[0], 33)[:, None]])
    mean, cov, AbarL = _joint_qf(model, points)
    chol, jitter = jittered_cholesky(cov, 1e-10 * model.hyper.gamma, tries=6)
    cov_m0 = chol @ chol.T
    cov_mp = cov_m0 + AbarL @ AbarL.T

    # q*(f) built directly: K_pp - K_pz K^-1 K_zp (+ K_pz K^-1 S K^-1 K_zp)
    A = gram(points, model.inducing.Z, model.hyper)
    KinvAT = np.linalg.solve(model.kzz, A.T)
    direct_m0 = gram(points, points, model.hyper) - A @ KinvAT
    direct_mp = direct_m0 + KinvAT.T @ model.var_state.S @ KinvAT
    tol = jitter + 1e-12 * model.hyper.gamma
    assert np.abs(cov_m0 - direct_m0).max() <= tol
    assert np.abs(cov_mp - direct_mp).max() <= tol

    mu, var = qf_marginals(points, model)
    assert np.allclose(mean, mu, rtol=1e-12, atol=1e-12)
    # qf_marginals floors the variances at VAR_FLOOR
    assert np.abs(cov_mp.diagonal() - var).max() <= tol + VAR_FLOOR


def test_joint_qf_allocates_one_covariance(fitted):
    # P = 1500 points: the covariance takes 8 P^2 bytes, and A-bar A^T is
    # taken off it in its own buffer
    model, _, d = fitted
    points = np.linspace(d.lo[0], d.hi[0], 1500)[:, None]
    tracemalloc.start()
    try:
        _joint_qf(model, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * points.shape[0] ** 2


def test_mc_factors_in_place_as_on_a_copy(fitted, monkeypatch):
    # The joint covariance factored in its own buffer gives the factor,
    # pivots and rank, and so the draws, of dpstrf on the covariance built
    # in C order.
    from vbpp import predictive
    model, ev, d = fitted
    points = np.vstack([ev.points, gauss_legendre(d, [8])[0]])
    A = gram(points, model.inducing.Z, model.hyper)
    Abar = model.kzz_solve(A.T).T
    cov = gram(points, points, model.hyper)
    cov -= Abar @ A.T
    _, cov_f, _ = _joint_qf(model, points)
    assert cov_f.flags.f_contiguous and np.array_equal(cov_f, cov)
    ref, piv, ref_rank, _ = scipy.linalg.lapack.dpstrf(cov, lower=1)

    c, rank, order = _pivoted_cholesky(cov_f)
    assert np.shares_memory(c, cov_f)
    assert rank == ref_rank and np.array_equal(order[piv - 1], np.arange(points.shape[0]))
    assert np.array_equal(np.tril(c[:, :rank]), np.tril(ref[:, :rank]))

    got, *_ = _mc_estimates(model, ev, 700, 8, seed=2)
    factor = predictive._pivoted_cholesky
    monkeypatch.setattr(predictive, "_pivoted_cholesky",
                        lambda cov: factor(np.ascontiguousarray(cov)))
    want, *_ = _mc_estimates(model, ev, 700, 8, seed=2)
    assert got == want


def test_mc_draws_in_chunks_of_bounded_size(fitted, monkeypatch):
    # each draws x n_test array is bounded by DRAW_CHUNK_BYTES; chunks of a
    # few draws take the same stream, so the estimates agree to rounding (M0's
    # stderr, 6e-11 here, is itself at the rounding level of its weights)
    from vbpp import predictive
    model, ev, _ = fitted
    whole, *_ = _mc_estimates(model, ev, 700, 8, seed=2)
    monkeypatch.setattr(predictive, "DRAW_CHUNK_BYTES", 8 * 30 * 7)
    chunked, *_ = _mc_estimates(model, ev, 700, 8, seed=2)
    for mode in ("Mp", "M0"):
        a, b = chunked[mode], whole[mode]
        assert a.log_mean == pytest.approx(b.log_mean, rel=1e-12, abs=0), mode
        assert a.stderr == pytest.approx(b.stderr, rel=1e-6, abs=1e-12), mode
        assert a.ess == pytest.approx(b.ess, rel=1e-12) and a.components == b.components


def _jittered_mc_log_liks(model, test, n_samples, grid_res, seed):
    """Plain Monte Carlo through a dense factor: a full Cholesky of the joint
    covariance plus the smallest of six jitters from 1e-10 gamma that works,
    P normals per draw, and log p(H | f) for each draw of f from q(f | u = m)
    (mode "M0") and q*(f) (mode "Mp")."""
    nodes, weights = gauss_legendre(model.domain, [grid_res] * model.domain.dims)
    points = np.vstack([test.points, nodes])
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x4D43]))
    mean, cov, AbarL = _joint_qf(model, points)
    chol, _ = jittered_cholesky(cov, 1e-10 * model.hyper.gamma, tries=6)
    log_liks = {"Mp": np.empty(n_samples), "M0": np.empty(n_samples)}

    def score(f):
        return np.sum(np.log(f[:test.n] ** 2), axis=0) - weights @ f[test.n:] ** 2

    for done in range(0, n_samples, 512):
        batch = min(512, n_samples - done)
        f = mean[:, None] + chol @ rng.standard_normal((points.shape[0], batch))
        eta = rng.standard_normal((AbarL.shape[1], batch))
        log_liks["M0"][done:done + batch] = score(f)
        f += AbarL @ eta
        log_liks["Mp"][done:done + batch] = score(f)
    return log_liks


def _plain_estimate(log_liks):
    """The log-mean-exp of plain draws' log-likelihoods and its delta-method
    stderr."""
    peak = log_liks.max()
    w = np.exp(log_liks - peak)
    return peak + np.log(w.mean()), w.std(ddof=1) / (w.mean() * np.sqrt(w.size))


def test_mc_estimates_agree_with_the_jittered_dense_sampler(fitted):
    # importance sampling against plain draws through a dense jittered
    # factor, at the (samples, nodes, seed) of the Monte Carlo tests below
    model, ev, _ = fitted
    for n_samples, nodes, seed in ((3000, 1024, 1), (3000, 256, 2), (2000, 256, 4)):
        new, *_ = _mc_estimates(model, ev, n_samples, nodes, seed)
        old = _jittered_mc_log_liks(model, ev, n_samples, nodes, seed)
        for mode in ("Mp", "M0"):
            plain, plain_se = _plain_estimate(old[mode])
            se = np.hypot(new[mode].stderr, plain_se)
            assert abs(new[mode].log_mean - plain) <= 4 * se, (mode, seed)


def tilted_moments(model, points, nodes, weights, mode):
    """The joint Gaussian of f at ``points`` and the Gauss-Legendre nodes,
    built from the kernel directly (no factor), tilted exactly by
    exp(-sum_j w_j f_j^2): log E[exp(-sum_j w_j f_j^2)] and the tilted mean
    and covariance of f at ``points``.  The nodes' covariance S enters only
    through W^-1 / 2 + S, which is positive definite whatever S's rank."""
    n = points.shape[0]
    x = np.vstack([points, nodes])
    A = gram(x, model.inducing.Z, model.hyper)
    KinvAT = np.linalg.solve(model.kzz, A.T)
    mu = KinvAT.T @ model.var_state.m
    cov = gram(x, x, model.hyper) - A @ KinvAT
    if mode == "Mp":
        cov += KinvAT.T @ model.var_state.S @ KinvAT
    cov = 0.5 * (cov + cov.T)
    mu_n, S_nn, S_xn = mu[n:], cov[n:, n:], cov[:n, n:]
    R = np.diag(0.5 / weights) + S_nn
    log_z = -0.5 * np.linalg.slogdet(np.eye(weights.size) + 2.0 * S_nn * weights)[1] \
        - 0.5 * mu_n @ np.linalg.solve(R, mu_n)
    mean = mu[:n] - S_xn @ np.linalg.solve(R, mu_n)
    return log_z, mean, cov[:n, :n] - S_xn @ np.linalg.solve(R, S_xn.T)


def two_event_log_lik(model, points, nodes, weights, mode):
    """log p(H) for two test events in closed form: the exact tilt, then
    E[f1^2 f2^2] = (m1^2 + S11)(m2^2 + S22) + 2 S12^2 + 4 m1 m2 S12 by
    Isserlis' theorem."""
    log_z, m, S = tilted_moments(model, points, nodes, weights, mode)
    moment = (m[0] ** 2 + S[0, 0]) * (m[1] ** 2 + S[1, 1]) + 2 * S[0, 1] ** 2 \
        + 4 * m[0] * m[1] * S[0, 1]
    return log_z + np.log(moment)


@pytest.fixture(scope="module")
def benchmark_models():
    """The coal model (M = 16) and the dense 1-D configuration (gamma 200,
    alpha 1, seed 3, M = 32), each fitted to all its events, and the first
    two events of each held-out half."""
    from vbpp.pointdata import coal_style_dataset, split_events
    from vbpp.simulate import ground_truth, thin_sample
    coal, d_coal = coal_style_dataset()
    d = Domain([0.0], [10.0])
    dense = thin_sample(ground_truth(HyperParams(200.0, [1.0]), d, seed=3), d, seed=3)
    out = {}
    for name, events, dom, M in (("coal", coal, d_coal, 16), ("dense", dense, d, 32)):
        model = fit(events, dom, M, FitConfig(max_iters=5000))
        out[name] = model, split_events(events, 0.5, 0)[1].points[:2]
    return out


def _check_against_closed_form(model, points, n_samples=2000, seed=1):
    """Both modes' estimates within 4 stderrs of the closed form, plus 1e-8
    for rounding: the estimator factors the covariance to its numerical rank,
    the oracle solves with it in full.  Returns the estimates."""
    res = [node_count(model)] * model.domain.dims
    nodes, weights = gauss_legendre(model.domain, res)
    estimates, *_ = _mc_estimates(model, EventSet(points), n_samples, res, seed)
    for mode, est in estimates.items():
        exact = two_event_log_lik(model, points, nodes, weights, mode)
        assert abs(est.log_mean - exact) <= 4 * est.stderr + 1e-8, (mode, est, exact)
    return estimates


@pytest.mark.parametrize("name", ["coal", "dense"])
def test_mc_matches_the_two_event_closed_form(benchmark_models, name):
    model, points = benchmark_models[name]
    _check_against_closed_form(model, points)


def test_mc_matches_the_closed_form_where_f_nears_zero(benchmark_models):
    # events where q*(f)'s mean is within 3 sd of zero: the mixture gains a
    # component where their f is negative, and the estimate holds to the
    # closed form with it.  One pair puts the second event where f is far
    # from zero; the other puts it 0.05 away, so that flipping one event's
    # sign flips both (the Laplace sd at the mode, which counts each event's
    # own factor, would put them at 3 sd)
    model, _ = benchmark_models["dense"]
    grid = np.linspace(0.05, 9.95, 397)[:, None]
    mu, var = qf_marginals(grid, model)
    ratio = np.abs(mu) / np.sqrt(var)
    near = grid[np.argmin(ratio)]
    assert ratio.min() < 3.0
    for other in (grid[np.argmax(ratio)], near + 0.05):
        estimates = _check_against_closed_form(model, np.vstack([near, other]))
        assert estimates["Mp"].components >= 3


def hafnian(S, idx):
    """Sum over the perfect matchings of ``idx`` of the products of S's
    entries: E[prod_i f_idx[i]] for f ~ N(0, S) (Isserlis' theorem)."""
    if not idx:
        return 1.0
    a, rest = idx[0], idx[1:]
    return sum(S[a, b] * hafnian(S, rest[:i] + rest[i + 1:]) for i, b in enumerate(rest))


def test_mc_finds_the_orthants_that_hold_mass_when_the_mean_vanishes(dispersed):
    # a zero mean: f vanishes at the tilted mean, so the first search starts
    # beside it, every event is a candidate, and each orthant's mirror image
    # holds as much mass as the orthant.  Two events: all four orthants get a
    # Laplace fit, beside the defensive component.  Six events: the closed
    # form is E[prod_k f_k^2] = hafnian of the tilted covariance
    model, _, d = dispersed
    zero = Model(model.hyper, model.inducing,
                 VariationalState(np.zeros(model.num_inducing), model.var_state.L), d)
    estimates = _check_against_closed_form(zero, np.array([[1.0], [3.5]]))
    assert estimates["Mp"].components == 5

    points = np.linspace(0.3, 4.8, 6)[:, None]
    res = [node_count(zero)]
    nodes, weights = gauss_legendre(d, res)
    estimates, *_ = _mc_estimates(zero, EventSet(points), 2000, res, seed=1)
    for mode, est in estimates.items():
        log_z, mean, S = tilted_moments(zero, points, nodes, weights, mode)
        assert not mean.any()
        exact = log_z + np.log(hafnian(S, tuple(np.repeat(np.arange(6), 2))))
        assert abs(est.log_mean - exact) <= 4 * est.stderr, (mode, est, exact)


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND line on predictive._laplace_components (MAX_COMPONENTS): the sign "
    "orthants of nearly independent near-zero events outnumber the Laplace fits, and the "
    "unfitted ones are reached only by the defensive component (ROADMAP item 15)"))
def test_mc_covers_the_orthants_of_six_nearly_independent_events():
    # a zero-mean model with a short lengthscale: tilted correlations between
    # the six events stay below 0.01, so their 64 sign orthants hold nearly
    # equal mass.  Mp is held to the hafnian closed form at every seed
    d = Domain([0.0], [10.0])
    model = Model(HyperParams(1.0, [0.05]), InducingPoints(regular_grid(d, 20)),
                  VariationalState(np.zeros(20), 0.3 * np.eye(20)), d)
    points = np.linspace(0.5, 9.5, 6)[:, None]
    res = [node_count(model)]
    nodes, weights = gauss_legendre(d, res)
    log_z, _, S = tilted_moments(model, points, nodes, weights, "Mp")
    exact = log_z + np.log(hafnian(S, tuple(np.repeat(np.arange(6), 2))))
    for seed in range(5):
        est = _mc_estimates(model, EventSet(points), 2000, res, seed)[0]["Mp"]
        assert abs(est.log_mean - exact) <= 4 * est.stderr, (seed, est, exact)


def test_mc_on_an_empty_test_set_is_the_exact_tilt_normaliser(fitted):
    model, _, d = fitted
    nodes, weights = gauss_legendre(d, [16])
    estimates, *_ = _mc_estimates(model, EventSet(np.empty((0, 1))), 500, 16, seed=3)
    for mode, est in estimates.items():
        log_z, _, _ = tilted_moments(model, np.empty((0, 1)), nodes, weights, mode)
        assert est.log_mean == pytest.approx(log_z, rel=1e-9), mode
        assert (est.stderr, est.ess, est.components) == (0.0, 0.0, 0)


def test_mc_predictive_input_validation(fitted):
    model, ev, _ = fitted
    with pytest.raises(ValueError):
        mc_predictive(model, ev, "bogus", 10, 64)
    with pytest.raises(ValueError):
        mc_predictive(model, ev, "Mp", 0, 64)
    with pytest.raises(ValueError):
        mc_predictive(model, ev, "Mp", 10, 4)


def test_mc_predictive_single_sample(fitted):
    model, ev, _ = fitted
    est, se = mc_predictive(model, ev, "Mp", 1, 64, seed=3)
    assert np.isfinite(est)
    assert se == 0.0


def test_mc_predictive_deterministic(fitted, monkeypatch):
    from vbpp import predictive
    model, ev, _ = fitted
    a = mc_predictive(model, ev, "M0", 500, 128, seed=5)
    b = mc_predictive(model, ev, "M0", 500, 128, seed=5)
    assert a == b
    c = mc_predictive(model, ev, "M0", 500, 128, seed=6)
    assert a != c
    # mc_predictive samples only its own mode, and each mode has its own
    # stream, so it gives the estimate that both modes together give
    both, *_ = _mc_estimates(model, ev, 500, 128, seed=5)
    calls = []
    sample = predictive._importance_sample
    monkeypatch.setattr(predictive, "_importance_sample",
                        lambda *args: calls.append(1) or sample(*args))
    assert a == tuple(both["M0"][:2])
    assert mc_predictive(model, ev, "Mp", 500, 128, seed=5) == tuple(both["Mp"][:2])
    assert len(calls) == 1


def test_mc_bounds_hold(fitted):
    # the converged fit to uniform events collapses to a nearly constant
    # intensity, so q*(f) is nearly deterministic and M_p's stderr (1e-9)
    # leaves l_p little room for rounding
    model, ev, _ = fitted
    mp, mp_se = mc_predictive(model, ev, "Mp", 3000, 1024, seed=1)
    m0, m0_se = mc_predictive(model, ev, "M0", 3000, 1024, seed=1)
    assert predictive_bound_lp(model, ev) <= mp + 3 * mp_se
    assert predictive_bound_l0(model, ev) <= m0 + 3 * m0_se


def test_mc_bounds_hold_on_a_dispersed_posterior(dispersed):
    model, ev, _ = dispersed
    mp, mp_se = mc_predictive(model, ev, "Mp", 3000, 1024, seed=1)
    m0, m0_se = mc_predictive(model, ev, "M0", 3000, 1024, seed=1)
    assert predictive_bound_lp(model, ev) <= mp + 3 * mp_se
    assert predictive_bound_l0(model, ev) <= m0 + 3 * m0_se


def test_mc_m0_has_less_spread_than_mp(dispersed):
    # the collapsed sampler removes the q(u) dispersion
    model, ev, _ = dispersed
    _, mp_se = mc_predictive(model, ev, "Mp", 3000, 256, seed=2)
    _, m0_se = mc_predictive(model, ev, "M0", 3000, 256, seed=2)
    assert m0_se < mp_se


def test_mc_quadrature_resolution_self_consistent(fitted):
    model, ev, _ = fitted
    coarse, _ = mc_predictive(model, ev, "M0", 2000, 256, seed=4)
    fine, fine_se = mc_predictive(model, ev, "M0", 2000, 2048, seed=4)
    assert abs(coarse - fine) < max(0.05, 5 * fine_se + 0.02)


def test_predictive_report_fields(fitted):
    model, ev, _ = fitted
    rep = predictive_report(model, ev, n_samples=400, seed=0)
    doc = rep.to_dict()
    for key in ("l_p", "l_0", "m_p_hat", "m_p_stderr", "m_0_hat", "m_0_stderr"):
        assert np.isfinite(doc[key])
    assert doc["n_samples"] == 400
    assert doc["grid_resolution"] == [node_count(model)]
    # Kish's effective sample size of each mode's weights, and the Mp
    # mixture's components: a Laplace fit and the defensive one at least
    assert 0 < doc["m_0_ess"] <= 400 and 0 < doc["m_p_ess"] <= 400
    assert doc["m_p_components"] >= 2


def test_report_l0_is_the_collapsed_bound_at_its_nodes(fitted):
    # predictive_report takes l_0 from its Monte-Carlo run, from the
    # marginals of q(f | u = m) that predictive_bound_l0 forms at the same
    # nodes: E[log f^2] at the events less the nodes' weighted E[f^2]
    model, ev, d = fitted
    rep = predictive_report(model, ev, n_samples=100, seed=0)
    assert rep.l_0 == predictive_bound_l0(model, ev)
    nodes, weights = gauss_legendre(d, rep.grid_resolution)
    A = gram(np.vstack([ev.points, nodes]), model.inducing.Z, model.hyper)
    mu = A @ np.linalg.solve(model.kzz, model.var_state.m)
    var = model.hyper.gamma - np.einsum("nm,mn->n", A, np.linalg.solve(model.kzz, A.T))
    var = np.maximum(var, VAR_FLOOR)
    ell = expected_log_f_sq(mu[:ev.n], var[:ev.n])[0]
    assert rep.l_0 == pytest.approx(ell.sum() - weights @ (mu[ev.n:] ** 2 + var[ev.n:]),
                                    rel=1e-9)


def test_predictive_report_rejects_test_events_outside_the_domain(fitted):
    model, _, d = fitted
    test = EventSet(np.array([[1.0], [d.hi[0] + 45.0]]))
    with pytest.raises(PointDataError, match="outside"):
        predictive_report(model, test, n_samples=50)
    with pytest.raises(PointDataError, match="test event 1: .* outside"):
        mc_predictive(model, test, "M0", 50, 16)


def test_the_empty_set_in_2d_fits_and_scores():
    d = Domain([0.0, 0.0], [2.0, 3.0])
    model = fit(EventSet(), d, 3, FitConfig(max_iters=100))
    assert model.fit_metadata["elbo"] == elbo(model, EventSet()) <= 0.0
    rep = predictive_report(model, EventSet(), n_samples=50)
    assert rep.l_p == predictive_bound_lp(model, EventSet(np.empty((0, 2)))) < 0.0
    assert rep.l_0 >= rep.l_p
    # no test events: each estimate is the tilt's normaliser, with no draws
    assert (rep.m_p_stderr, rep.m_0_stderr, rep.m_p_ess, rep.m_0_ess) == (0.0,) * 4
    assert rep.m_p_components == 0


def test_predictive_report_records_the_factor_rank(fitted):
    model, ev, d = fitted
    rep = predictive_report(model, ev, n_samples=400, seed=0)
    _, rank, _ = _mc_estimates(model, ev, 400, rep.grid_resolution, seed=0)
    assert rep.mc_rank == rank
    assert 0 < rank < ev.n + rep.grid_resolution[0]


def test_quadrature_matches_the_closed_form(fitted):
    # the chosen Gauss-Legendre nodes integrate E_q*[f^2] to the closed form
    # int_mean_sq + int_var, in 1-D and in 2-D
    from vbpp.simulate import ground_truth, thin_sample
    d2 = Domain([0.0, 0.0], [5.0, 5.0])
    truth = ground_truth(HyperParams(4.0, [2.0, 2.0]), d2, resolution=24, seed=2)
    model2 = fit(thin_sample(truth, d2, seed=2), d2, 3, FitConfig(max_iters=200))
    for model in (fitted[0], model2):
        n = node_count(model)
        nodes, weights = gauss_legendre(model.domain, [n] * model.domain.dims)
        mu, var = qf_marginals(nodes, model)
        terms = _evaluate(model)
        assert weights @ (mu**2 + var) == pytest.approx(terms.int_mean_sq + terms.int_var,
                                                        rel=2e-6)


def _point_model(mu_target, var_target):
    """Single-inducing-point model whose q(f) marginal at z is controlled."""
    d = Domain([0.0], [2.0])
    h = HyperParams(gamma=var_target, alpha=np.array([50.0]), u_bar=0.0)
    Z = np.array([[1.0]])
    # at z: var = gamma - gamma + L^2 -> pick L so q(f)(z) = N(mu, var)
    L = np.array([[np.sqrt(var_target)]])
    return Model(h, InducingPoints(Z), VariationalState(np.array([mu_target]), L), d)


def test_posterior_intensity_band_straddling_zero():
    # mu = 0: the 95% f-interval straddles 0, so the band is [0, (1.96 sd)^2]
    model = _point_model(0.0, 1.0)
    mean, lower, upper = posterior_intensity(model, np.array([[1.0]]))
    assert mean[0] == pytest.approx(1.0, rel=1e-6)
    assert lower[0] == 0.0
    assert upper[0] == pytest.approx(3.8415, abs=1e-3)


def test_posterior_intensity_band_away_from_zero():
    # mu = 10 sd: the interval is strictly positive and both ends square up
    model = _point_model(10.0, 1.0)
    mean, lower, upper = posterior_intensity(model, np.array([[1.0]]))
    assert mean[0] == pytest.approx(101.0, rel=1e-6)
    assert lower[0] == pytest.approx((10.0 - 1.959963984540054) ** 2, rel=1e-6)
    assert upper[0] == pytest.approx((10.0 + 1.959963984540054) ** 2, rel=1e-6)


def test_posterior_intensity_band_coverage_by_sampling():
    # the band is the image of the central 95% f-interval: squared draws of f
    # should land inside it with almost exactly 95% probability when the
    # interval does not straddle zero
    model = _point_model(5.0, 0.25)
    _, lower, upper = posterior_intensity(model, np.array([[1.0]]))
    rng = np.random.default_rng(0)
    lam = rng.normal(5.0, 0.5, 400_000) ** 2
    frac = np.mean((lam >= lower[0]) & (lam <= upper[0]))
    assert frac == pytest.approx(0.95, abs=0.002)


def test_posterior_intensity_accepts_a_flat_array_of_1d_points(fitted):
    model, _, d = fitted
    xs = np.linspace(d.lo[0], d.hi[0], 5)
    flat = posterior_intensity(model, xs)
    column = posterior_intensity(model, xs[:, None])
    for a, b in zip(flat, column):
        assert np.array_equal(a, b)


def test_posterior_intensity_mean_identity(fitted):
    from vbpp.core import qf_marginals
    model, _, d = fitted
    xs = np.linspace(d.lo[0], d.hi[0], 17)[:, None]
    mean, lower, upper = posterior_intensity(model, xs)
    mu, var = qf_marginals(xs, model)
    assert np.allclose(mean, mu**2 + var, rtol=1e-12)
    assert (lower <= mean).all() and (mean <= upper + 1e-9).all()
