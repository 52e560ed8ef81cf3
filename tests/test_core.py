import json

import numpy as np
import pytest
import scipy.linalg

from vbpp import core
from vbpp.core import (
    GRAD_BLOCKS,
    InducingPoints,
    Model,
    VariationalState,
    _evaluate,
    cholesky,
    elbo,
    elbo_and_gradient,
    expected_log_f_sq,
    kzz_factor,
    load_model,
    model_to_dict,
    predictive_bound_lp,
    qf_marginals,
    save_model,
)
from vbpp.kernel import HyperParams, gram, psi_with_partials
from vbpp.optimizer import FitConfig, _initial_model, fit, pack, unpack
from vbpp.pointdata import Domain, EventSet, coal_style_dataset, domain_measure, regular_grid
from vbpp.specfun import EULER_MASCHERONI


def make_model(M=3, seed=0, u_bar=0.7, d=None):
    rng = np.random.default_rng(seed)
    d = d or Domain([0.0], [4.0])
    Z = np.linspace(d.lo[0] + 0.4, d.hi[0] - 0.4, M)[:, None]
    h = HyperParams(gamma=1.3, alpha=np.array([0.6]), u_bar=u_bar)
    A = rng.standard_normal((M, M)) * 0.2
    L = np.tril(A)
    L[np.diag_indices(M)] = np.abs(np.diag(A)) + 0.3
    m = rng.standard_normal(M)
    return Model(h, InducingPoints(Z), VariationalState(m, L), d)


def test_variational_state_validation():
    with pytest.raises(ValueError):
        VariationalState(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        VariationalState(np.zeros(2), np.array([[1.0, 0.0], [0.2, -1.0]]))
    with pytest.raises(ValueError):
        VariationalState(np.zeros(3), np.eye(2))


@pytest.mark.parametrize("i, j, value", [
    (0, 1, 1e-9), (0, 1, -1e-8), (0, 1, 2e-8), (0, 1, np.nan), (0, 1, np.inf),
    (1, 0, np.nan), (1, 0, np.inf), (1, 0, -np.inf), (1, 0, 5.0), (0, 0, np.nan),
])
def test_variational_state_triangle_check_is_allclose(i, j, value):
    # the check accepts exactly the matrices np.allclose(L, tril(L)) accepts
    L = np.array([[1.0, 0.0], [0.3, 2.0]])
    L[i, j] = value
    if np.allclose(L, np.tril(L)) and L.diagonal().min() > 0:
        VariationalState(np.zeros(2), L)
    else:
        with pytest.raises(ValueError):
            VariationalState(np.zeros(2), L)


def test_qf_marginal_at_inducing_point_with_tiny_s():
    # with S ~ 0 and one inducing point, q(f) at z interpolates m exactly
    d = Domain([0.0], [2.0])
    h = HyperParams(gamma=2.0, alpha=np.array([1.0]), u_bar=0.0)
    model = Model(h, InducingPoints(np.array([[1.0]])),
                  VariationalState(np.array([0.8]), np.array([[1e-7]])), d)
    mu, var = qf_marginals(np.array([[1.0]]), model)
    assert mu[0] == pytest.approx(0.8, rel=1e-6)
    assert var[0] < 1e-6


def test_kl_against_explicit_inverse():
    model = make_model(M=4, seed=3)
    m = model.var_state.m
    S = model.var_state.S
    K = gram(model.inducing.Z, model.inducing.Z, model.hyper)
    K[np.diag_indices(4)] += 1e-8 * model.hyper.gamma
    Kinv = np.linalg.inv(K)
    diff = m - model.hyper.u_bar
    ref = 0.5 * (np.trace(Kinv @ S)
                 + diff @ Kinv @ diff
                 - 4
                 + np.linalg.slogdet(K)[1] - np.linalg.slogdet(S)[1])
    assert _evaluate(model).kl == pytest.approx(ref, abs=1e-9)


def test_kl_zero_when_q_equals_prior():
    d = Domain([0.0], [4.0])
    h = HyperParams(gamma=1.3, alpha=np.array([0.6]), u_bar=0.7)
    Z = np.linspace(0.4, 3.6, 3)[:, None]
    K = gram(Z, Z, h)
    K[np.diag_indices(3)] += 1e-8 * h.gamma
    L = np.linalg.cholesky(K)
    model = Model(h, InducingPoints(Z),
                  VariationalState(np.full(3, 0.7), L), d)
    assert _evaluate(model).kl == pytest.approx(0.0, abs=1e-12)


def test_expected_log_f_sq_centred():
    # mu = 0: E[log f^2] = log(var/2) - C exactly, and the slope is g-tilde'(0) = 2
    var = np.array([0.5, 1.0, 7.0])
    got, slopes = expected_log_f_sq(np.zeros(3), var)
    assert got == pytest.approx(np.log(var / 2.0) - EULER_MASCHERONI, rel=1e-12)
    assert slopes == pytest.approx(2.0, rel=1e-6)


def test_expected_log_f_sq_frozen_case():
    # (mu, var) = (1, 1), frozen from the converged series and confirmed by
    # direct Monte Carlo (20M samples: -0.41697 +- 0.00047)
    got, _ = expected_log_f_sq(np.array([1.0]), np.array([1.0]))
    assert got[0] == pytest.approx(-0.41699163686938856, rel=1e-6)


def test_expected_log_f_sq_small_variance_limit():
    # var -> 0 with mu fixed approaches log(mu^2)
    got, _ = expected_log_f_sq(np.array([2.0]), np.array([1e-9]))
    assert got[0] == pytest.approx(np.log(4.0), rel=1e-4)


def test_integral_terms_against_grid_quadrature():
    model = make_model(M=4, seed=5)
    n = 20001
    xs = np.linspace(model.domain.lo[0], model.domain.hi[0], n)[:, None]
    mu, var = qf_marginals(xs, model)
    w = (model.domain.hi[0] - model.domain.lo[0]) / (n - 1)
    # trapezoid weights
    weights = np.full(n, w); weights[0] = weights[-1] = w / 2
    terms = _evaluate(model)
    assert terms.int_mean_sq == pytest.approx(float(weights @ mu**2), rel=1e-6)
    assert terms.int_var == pytest.approx(float(weights @ var), rel=1e-6)


def _closed_domain_integrals(model):
    """B = K^-1 Psi K^-1 and gamma |T| - tr(K^-1 Psi) from Psi's closed form."""
    psi = psi_with_partials(model.inducing.Z, model.hyper, model.domain, False)[0]
    solved = model.kzz_solve(psi)
    return model.kzz_solve(solved.T), \
        model.hyper.gamma * domain_measure(model.domain) - float(solved.trace())


@pytest.mark.parametrize("build", [lambda: make_model(M=4, seed=5), lambda: _two_d_model()[0]],
                         ids=["1d", "2d"])
def test_domain_integrals_rule_matches_psi_where_k_zz_is_well_conditioned(build):
    model = build()
    psi = psi_with_partials(model.inducing.Z, model.hyper, model.domain, False)[0]
    B, prior = core.domain_integrals(model, psi)
    closed_B, closed_prior = _closed_domain_integrals(model)
    np.testing.assert_allclose(B, closed_B, rtol=0, atol=1e-13 * np.abs(closed_B).max())
    assert prior == pytest.approx(closed_prior, rel=1e-12)


def test_domain_integrals_fall_back_to_psi_past_the_node_budget():
    # a lengthscale of 1/1100 of the domain asks for 4416 nodes
    model = make_model(M=4, seed=5)
    model = Model(HyperParams(1.3, (4.0 / 1100) ** 2), model.inducing, model.var_state,
                  model.domain)
    psi = psi_with_partials(model.inducing.Z, model.hyper, model.domain, False)[0]
    B, prior = core.domain_integrals(model, psi)
    closed_B, closed_prior = _closed_domain_integrals(model)
    assert np.array_equal(B, closed_B) and prior == closed_prior


def test_domain_integrals_at_the_coal_fit():
    # cond K_zz 1.2e9: Psi's closed form put int E[f]^2 1.3e-9 of itself low
    # (2.4e-7 nats), int Var's prior part at -1.6e-7 where it is >= 0, and
    # the bound at fixed q(u) 2.6e-7 nats off a quadratic along a theta line
    ev, d = coal_style_dataset()
    model = fit(ev, d, 16, FitConfig())
    terms = _evaluate(model, ev)
    nodes, weights = core.gauss_legendre(d, [512])
    mu, _ = qf_marginals(nodes, model)
    assert terms.int_mean_sq == pytest.approx(float(weights @ mu**2), rel=1e-12)
    assert core.theta_stage(model).int_var_prior >= 0.0
    cfg = FitConfig()
    y0 = pack(model, cfg)
    direction = np.random.default_rng(0).standard_normal(y0.size)
    steps = (np.arange(41) - 20) * 5e-7 * direction[:, None] / np.linalg.norm(direction)
    values = np.array([elbo(unpack(y0 + s, d, 16, cfg, fixed_z=model.inducing.Z,
                                   var_state=model.var_state), ev) for s in steps.T])
    offsets = np.arange(41) - 20
    residual = values - np.polyval(np.polyfit(offsets, values, 2), offsets)
    assert np.abs(residual).max() < 1e-9


def test_elbo_no_events_components():
    model = make_model(M=3, seed=1)
    terms = _evaluate(model)
    expected = -(terms.int_mean_sq + terms.int_var) - terms.kl
    assert elbo(model, EventSet(np.empty((0, 1)))) == pytest.approx(expected, abs=1e-12)


def test_elbo_sign_flip_invariance():
    # lambda = f^2 cannot distinguish f from -f: negating (m, u_bar) leaves
    # the bound unchanged
    model = make_model(M=3, seed=2, u_bar=0.5)
    ev = EventSet(np.array([[0.3], [1.1], [2.7]]))
    flipped = Model(
        HyperParams(model.hyper.gamma, model.hyper.alpha, -model.hyper.u_bar),
        model.inducing,
        VariationalState(-model.var_state.m, model.var_state.L),
        model.domain)
    assert elbo(model, ev) == pytest.approx(elbo(flipped, ev), rel=1e-13)


def test_elbo_homogeneous_single_point_sanity():
    # one inducing point on a unit domain with m tuned to the event count
    # should beat a clearly mistuned alternative
    d = Domain([0.0], [1.0])
    h = HyperParams(gamma=1.0, alpha=np.array([10.0]), u_bar=2.0)
    Z = np.array([[0.5]])
    ev = EventSet(np.linspace(0.1, 0.9, 4)[:, None])
    good = Model(h, InducingPoints(Z), VariationalState(np.array([2.0]), np.array([[0.1]])), d)
    bad = Model(h, InducingPoints(Z), VariationalState(np.array([8.0]), np.array([[0.1]])), d)
    assert elbo(good, ev) > elbo(bad, ev)


def bound_in_coordinates(model, ev, optimize_z):
    """The bound as a function of one flat vector, its analytic gradient
    there and that vector: [theta as the fit packs it, m, Y's lower
    triangle], with S = L (I + Y) L^T for the model's L and a symmetric Y,
    0 at the model.  A coordinate of Y's lower triangle off the diagonal
    moves Y_ij and Y_ji together.  A small Y keeps S positive definite
    however ill-conditioned the model's S is."""
    from vbpp.optimizer import FitConfig, pack, theta_blocks, unpack
    cfg = FitConfig(optimize_z=optimize_z)
    d, Z, M = model.domain, model.inducing.Z, model.num_inducing
    L = model.var_state.L
    theta = pack(model, cfg)
    n = theta.size
    tril = np.tril_indices(M)
    y0 = np.concatenate([theta, model.var_state.m, np.zeros(tril[0].size)])

    def value(y):
        Y = np.zeros((M, M))
        Y[tril] = y[n + M:]
        Y += np.tril(Y, -1).T
        S = L @ (np.eye(M) + Y) @ L.T
        q = VariationalState(y[n:n + M], np.linalg.cholesky(S))
        return elbo(unpack(y[:n], d, M, cfg, fixed_z=None if optimize_z else Z,
                           var_state=q), ev)

    blocks = theta_blocks(cfg) + ("m",)
    _, grads = elbo_and_gradient(model, ev, wrt=blocks + ("L",))
    G = grads["L"]             # L^T (dL/dS) L, the gradient in Y
    g_y = (G + G.T)[tril]
    g_y[tril[0] == tril[1]] /= 2.0
    g = np.concatenate([np.ravel(grads[b]) for b in blocks] + [g_y])
    return value, g, y0


def gradient_and_fd(model, ev, optimize_z, step=1e-6):
    """The bound's analytic gradient in :func:`bound_in_coordinates`'s
    coordinates, and central finite differences of the bound there."""
    value, g, y0 = bound_in_coordinates(model, ev, optimize_z)
    fd = np.empty(y0.size)
    for i in range(y0.size):
        e = np.zeros(y0.size); e[i] = step
        fd[i] = (value(y0 + e) - value(y0 - e)) / (2 * step)
    return g, fd


def test_gradient_matches_fd_fixed_z():
    model = make_model(M=3, seed=8)
    ev = EventSet(np.array([[0.5], [1.7], [3.2]]))
    g, fd = gradient_and_fd(model, ev, optimize_z=False)
    assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_gradient_matches_fd_with_z():
    # every block, the inducing locations' "Z" after theta's others
    model = make_model(M=3, seed=9)
    ev = EventSet(np.array([[0.2], [2.0], [3.8]]))
    g, fd = gradient_and_fd(model, ev, optimize_z=True)
    assert np.allclose(g, fd, rtol=1e-4, atol=1e-7)


def test_gradient_value_agrees_with_elbo():
    model = make_model(M=3, seed=10)
    ev = EventSet(np.array([[1.0], [2.0]]))
    value, _ = elbo_and_gradient(model, ev, wrt=("m",))
    assert value == pytest.approx(elbo(model, ev), rel=1e-13)


def _coal_start():
    ev, d = coal_style_dataset()
    return _initial_model(ev, d, regular_grid(d, 16)), ev


def _two_d_model():
    d = Domain([0.0, 0.0], [4.0, 3.0])
    h = HyperParams(gamma=1.7, alpha=np.array([0.8, 1.3]), u_bar=0.4)
    Z = np.array([[0.5, 0.5], [2.0, 1.0], [3.5, 2.5], [1.0, 2.5], [2.5, 2.0]])
    rng = np.random.default_rng(4)
    L = np.tril(0.1 * rng.standard_normal((5, 5))) + 0.5 * np.eye(5)
    model = Model(h, InducingPoints(Z), VariationalState(rng.standard_normal(5), L), d)
    return model, EventSet(rng.uniform([0.0, 0.0], [4.0, 3.0], (40, 2)))


@pytest.mark.parametrize("build", [_coal_start, _two_d_model], ids=["coal-start", "2d"])
def test_bound_is_bit_identical_whatever_blocks_are_requested(build, monkeypatch):
    # the bound takes one of two paths, without Psi's Z partials or with
    # them, and wrt only chooses which blocks are returned; so a value, any
    # request and any order of blocks must round identically
    model, ev = build()
    seen = []

    def psi_spy(Z, h, d, with_z):
        seen.append(with_z)
        return psi_with_partials(Z, h, d, with_z)

    monkeypatch.setattr(core, "psi_with_partials", psi_spy)
    full = _evaluate(model, ev, GRAD_BLOCKS)
    fit_fixed_z = tuple(b for b in GRAD_BLOCKS if b != "Z")
    shuffled = ("L", "Z", "log_gamma", "m", "u_bar", "log_alpha")
    requests = [(), *[(b,) for b in GRAD_BLOCKS], ("m", "L"), fit_fixed_z, GRAD_BLOCKS,
                shuffled]
    for wrt in requests:
        part = _evaluate(model, ev, wrt)
        assert part[:4] == full[:4], wrt
        assert tuple(part.grads) == wrt
        for b in wrt:
            assert np.array_equal(part.grads[b], full.grads[b]), b
    # one Psi per evaluation, with its Z partials only where "Z" is requested
    assert seen == [True] + ["Z" in wrt for wrt in requests]
    assert elbo(model, ev) == full.elbo
    assert predictive_bound_lp(model, ev) == full.expected_log_lik


def test_cholesky_matches_scipy_bit_for_bit():
    model, _ = _coal_start()
    K = model.kzz.copy()
    assert np.array_equal(cholesky(K), scipy.linalg.cholesky(K, lower=True))
    # an F-ordered K is factored in its own buffer, here at P = 1024 with
    # junk in the upper triangle, which is never read and comes back zero
    x = np.linspace(0.0, 10.0, 1024)[:, None]
    big = gram(x, x, HyperParams(gamma=2.0, alpha=np.array([0.5])))
    big[np.diag_indices_from(big)] += 1e-6
    want = scipy.linalg.cholesky(big, lower=True)
    buf = np.asfortranarray(np.tril(big) + np.triu(np.full_like(big, 7.0), 1))
    got = cholesky(buf)
    assert np.shares_memory(got, buf) and np.array_equal(got, want)
    assert not np.triu(got, 1).any()
    with pytest.raises(np.linalg.LinAlgError):
        cholesky(K - 2.0 * np.eye(K.shape[0]))
    K[3, 2] = np.nan
    with pytest.raises(ValueError):
        cholesky(K)


def _long_double_kzz_solve(chol, rhs):
    """K^-1 rhs by forward and back substitution in long double, with the
    float factor ``chol`` taken as exact."""
    Lx, y = chol.astype(np.longdouble), rhs.astype(np.longdouble)
    for i in range(y.shape[0]):
        y[i] = (y[i] - Lx[i, :i] @ y[:i]) / Lx[i, i]
    for i in reversed(range(y.shape[0])):
        y[i] = (y[i] - Lx[i + 1:, i] @ y[i + 1:]) / Lx[i, i]
    return y


@pytest.fixture(scope="module")
def dense_fit():
    """The dense 1-D configuration (gamma 200, alpha 1, seed 3) fitted at M = 32."""
    from vbpp.simulate import ground_truth, thin_sample
    d = Domain([0.0], [10.0])
    ev = thin_sample(ground_truth(HyperParams(200.0, [1.0]), d, seed=3), d, seed=3)
    return fit(ev, d, 32, FitConfig(max_iters=5000)), ev


@pytest.mark.parametrize("case", [8, 16, 32, 64, "dense"])
def test_kzz_solve_is_as_accurate_as_dpotrs(case, request):
    # K^-1 A^T for the events' A = K(X, Z), at the coal start (cond K_zz from
    # 4e3 at M = 8 to 3e9 at M = 64) and at the dense fit: the products with
    # the inverse factor, in both forms, err from a long-double solve on the
    # same factor at most twice as much as LAPACK's dpotrs, or by less than
    # 1e-13 of the solution's largest entry
    if case == "dense":
        model, ev = request.getfixturevalue("dense_fit")
    else:
        ev, d = coal_style_dataset()
        model = _initial_model(ev, d, regular_grid(d, case))
    chol = kzz_factor(model.inducing.Z, model.hyper)[1]
    A = gram(ev.points, model.inducing.Z, model.hyper)
    want = _long_double_kzz_solve(chol, A.T)
    scale = float(np.abs(want).max())

    def error(x):
        return float(np.abs(x - want).max()) / scale

    bound = max(2.0 * error(scipy.linalg.lapack.dpotrs(chol, A.T, lower=1)[0]), 1e-13)
    assert error(model.kzz_solve(A.T)) <= bound
    assert error(model.kzz_solve_rows(A).T) <= bound


def test_gradient_rejects_unknown_block():
    model = make_model()
    with pytest.raises(ValueError):
        elbo_and_gradient(model, EventSet(np.empty((0, 1))), wrt=("bogus",))


def test_model_roundtrip(tmp_path):
    model = make_model(M=4, seed=11)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    ev = EventSet(np.array([[0.9], [3.0]]))
    assert elbo(back, ev) == pytest.approx(elbo(model, ev), rel=1e-15)
    assert np.array_equal(back.inducing.Z, model.inducing.Z)
    assert np.array_equal(back.var_state.L, model.var_state.L)


def test_model_with_angles_loads(tmp_path):
    # files written by optimize_z fits of earlier versions carry the sine
    # map's angles beside Z; Z alone defines the model
    model = make_model(M=4, seed=12)
    doc = model_to_dict(model)
    doc["omega"] = np.arcsin(2.0 * model.inducing.Z / 4.0 - 1.0).tolist()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    back = load_model(path)
    assert np.array_equal(back.inducing.Z, model.inducing.Z)
    assert model_to_dict(back) == model_to_dict(model)


def test_model_dimension_mismatch():
    d = Domain([0.0, 0.0], [1.0, 1.0])
    h = HyperParams(gamma=1.0, alpha=np.array([1.0]))
    with pytest.raises(ValueError):
        Model(h, InducingPoints(np.array([[0.5, 0.5]])),
              VariationalState(np.zeros(1), np.eye(1)), d)
