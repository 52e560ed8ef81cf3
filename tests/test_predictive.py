import numpy as np
import pytest

from vbpp.core import (
    VAR_FLOOR,
    InducingPoints,
    Model,
    VariationalState,
    chol_with_jitter,
    _evaluate,
    elbo,
    qf_marginals,
)
from vbpp.kernel import HyperParams, gram
from vbpp.optimizer import FitConfig, fit
from vbpp.pointdata import Domain, EventSet
from vbpp.predictive import (
    _gauss_legendre,
    _joint_qf,
    _node_count,
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


def test_mc_jitter_sequence(fitted, monkeypatch):
    # The joint covariance gets six tries, from 1e-10 gamma up by 100 each.
    import vbpp.core
    model, ev, _ = fitted
    diags = []

    def cholesky(K, lower):
        diags.append(K.diagonal().copy())
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(vbpp.core, "cholesky", cholesky)
    with pytest.raises(np.linalg.LinAlgError):
        mc_predictive(model, ev, "Mp", 4, 8)
    assert len(diags) == 6
    added = np.array([np.max(dg - diags[0]) for dg in diags[1:]])
    expected = 1e-10 * model.hyper.gamma * (100.0 ** np.arange(1, 6) - 1.0)
    assert np.allclose(added, expected, rtol=1e-6, atol=0)


def test_joint_qf_factors_the_qstar_covariance(fitted):
    model, ev, d = fitted
    points = np.vstack([ev.points, np.linspace(d.lo[0], d.hi[0], 33)[:, None]])
    mean, cov, AbarL = _joint_qf(model, points)
    cov_diag = cov.diagonal().copy()
    chol = chol_with_jitter(cov, 1e-10 * model.hyper.gamma, tries=6)
    jitter = float(np.max(cov.diagonal() - cov_diag))
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


def test_mc_predictive_deterministic(fitted):
    model, ev, _ = fitted
    a = mc_predictive(model, ev, "M0", 500, 128, seed=5)
    b = mc_predictive(model, ev, "M0", 500, 128, seed=5)
    assert a == b
    c = mc_predictive(model, ev, "M0", 500, 128, seed=6)
    assert a != c


def test_mc_bounds_hold(fitted):
    model, ev, _ = fitted
    mp, mp_se = mc_predictive(model, ev, "Mp", 3000, 1024, seed=1)
    m0, m0_se = mc_predictive(model, ev, "M0", 3000, 1024, seed=1)
    assert predictive_bound_lp(model, ev) <= mp + 3 * mp_se
    assert predictive_bound_l0(model, ev) <= m0 + 3 * m0_se


def test_mc_m0_has_less_spread_than_mp(fitted):
    # the collapsed sampler removes the q(u) dispersion
    model, ev, _ = fitted
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
    assert doc["grid_resolution"] == [16]


def test_quadrature_matches_the_closed_form(fitted):
    # the chosen Gauss-Legendre nodes integrate E_q*[f^2] to the closed form
    # int_mean_sq + int_var, in 1-D and in 2-D
    from vbpp.simulate import ground_truth, thin_sample
    d2 = Domain([0.0, 0.0], [5.0, 5.0])
    truth = ground_truth(HyperParams(4.0, [2.0, 2.0]), d2, resolution=24, seed=2)
    model2 = fit(thin_sample(truth, d2, seed=2), d2, 3, FitConfig(max_iters=200))
    for model in (fitted[0], model2):
        n = _node_count(model)
        nodes, weights = _gauss_legendre(model.domain, [n] * model.domain.dims)
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
