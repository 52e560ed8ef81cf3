import json

import numpy as np
import pytest

from vbpp.core import (
    InducingPoints,
    Model,
    VariationalState,
    _evaluate,
    elbo,
    elbo_and_gradient,
    expected_log_f_sq,
    load_model,
    model_to_dict,
    qf_marginals,
    save_model,
)
from vbpp.kernel import HyperParams, gram
from vbpp.pointdata import Domain, EventSet, domain_measure
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


def fit_gradient_and_fd(model, ev, optimize_z, step=1e-6):
    """The gradient the fit's optimiser receives, and central finite
    differences of the bound through a pack/unpack round trip."""
    from vbpp.optimizer import FitConfig, _objective_factory, pack, unpack
    cfg = FitConfig(optimize_z=optimize_z)
    y0 = pack(model, cfg)
    M = model.num_inducing
    fixed_z = None if optimize_z else model.inducing.Z
    g = -_objective_factory(ev, model.domain, M, cfg, fixed_z, None)(y0)[1]

    def value(y):
        return elbo(unpack(y, model.domain, M, cfg, fixed_z=fixed_z), ev)

    fd = np.empty(y0.size)
    for i in range(y0.size):
        e = np.zeros(y0.size); e[i] = step
        fd[i] = (value(y0 + e) - value(y0 - e)) / (2 * step)
    return g, fd


def test_gradient_matches_fd_fixed_z():
    model = make_model(M=3, seed=8)
    ev = EventSet(np.array([[0.5], [1.7], [3.2]]))
    g, fd = fit_gradient_and_fd(model, ev, optimize_z=False)
    assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_gradient_matches_fd_with_z():
    # every block, the inducing locations' "Z" last
    model = make_model(M=3, seed=9)
    ev = EventSet(np.array([[0.2], [2.0], [3.8]]))
    g, fd = fit_gradient_and_fd(model, ev, optimize_z=True)
    assert np.allclose(g, fd, rtol=1e-4, atol=1e-7)


def test_gradient_value_agrees_with_elbo():
    model = make_model(M=3, seed=10)
    ev = EventSet(np.array([[1.0], [2.0]]))
    value, _ = elbo_and_gradient(model, ev, wrt=("m",))
    assert value == pytest.approx(elbo(model, ev), rel=1e-13)


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
