import numpy as np
import pytest

from vbpp.core import InducingPoints, Model, VariationalState, _evaluate, elbo
from vbpp.kernel import HyperParams
from vbpp.optimizer import (
    FitConfig,
    MapPrior,
    default_map_prior,
    _initial_model,
    _objective_factory,
    fit,
    pack,
    regular_grid,
    unpack,
)
from vbpp.pointdata import Domain, EventSet, coal_style_dataset


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(max_iters=0)
    with pytest.raises(ValueError):
        FitConfig(grad_tol=0.0)


def test_regular_grid_midpoints():
    d = Domain([0.0], [1.0])
    g = regular_grid(d, 4)
    assert np.allclose(g[:, 0], [0.125, 0.375, 0.625, 0.875])
    d2 = Domain([0.0, 0.0], [2.0, 2.0])
    g2 = regular_grid(d2, [2, 3])
    assert g2.shape == (6, 2)
    assert d2.contains(g2).all()


def test_pack_lengths():
    d = Domain([0.0], [1.0])
    h = HyperParams(gamma=1.0, alpha=np.array([1.0]), u_bar=0.0)
    Z = np.array([[0.25], [0.75]])
    vs = VariationalState(np.zeros(2), np.eye(2))
    model = Model(h, InducingPoints(Z), vs, d)
    # 1 + R + 1 + M + M(M+1)/2 = 1 + 1 + 1 + 2 + 3 = 8
    assert pack(model, FitConfig()).size == 8
    assert pack(model, FitConfig(optimize_z=True)).size == 10


def test_pack_unpack_roundtrip():
    d = Domain([0.0], [3.0])
    h = HyperParams(gamma=2.5, alpha=np.array([0.4]), u_bar=-0.3)
    Z = np.array([[0.5], [1.5], [2.5]])
    L = np.array([[0.7, 0, 0], [0.1, 0.5, 0], [-0.2, 0.3, 0.9]])
    model = Model(h, InducingPoints(Z),
                  VariationalState(np.array([1.0, -2.0, 0.5]), L), d)
    for cfg in (FitConfig(), FitConfig(optimize_z=True)):
        y = pack(model, cfg)
        back = unpack(y, d, 3, cfg, fixed_z=None if cfg.optimize_z else Z)
        assert back.hyper.gamma == pytest.approx(2.5, rel=1e-14)
        assert np.allclose(back.hyper.alpha, [0.4])
        assert back.hyper.u_bar == pytest.approx(-0.3)
        assert np.allclose(back.var_state.m, model.var_state.m)
        assert np.allclose(back.var_state.L, L, atol=1e-14)
        assert np.array_equal(back.inducing.Z, Z)


def test_unpack_length_check():
    with pytest.raises(ValueError):
        unpack(np.zeros(9), Domain([0.0], [1.0]), 2, FitConfig(),
               fixed_z=np.array([[0.2], [0.8]]))


def test_map_prior_gradient_fd():
    prior = MapPrior(log_gamma_mean=0.3, log_alpha_mean=np.array([-0.5, 0.2]),
                     u_bar_mean=1.0, u_bar_sd=2.0)
    point = (0.7, np.array([0.1, -0.4]), 0.2)
    _, d_lg, d_la, d_ub = prior.log_density_and_grad(*point)
    eps = 1e-6

    def val(lg, la, ub):
        return prior.log_density_and_grad(lg, la, ub)[0]

    assert d_lg == pytest.approx(
        (val(point[0] + eps, point[1], point[2]) - val(point[0] - eps, point[1], point[2]))
        / (2 * eps), rel=1e-6)
    for r in range(2):
        la_p = point[1].copy(); la_p[r] += eps
        la_m = point[1].copy(); la_m[r] -= eps
        assert d_la[r] == pytest.approx(
            (val(point[0], la_p, point[2]) - val(point[0], la_m, point[2])) / (2 * eps),
            rel=1e-6)
    assert d_ub == pytest.approx(
        (val(point[0], point[1], point[2] + eps) - val(point[0], point[1], point[2] - eps))
        / (2 * eps), rel=1e-6)


def test_fit_empty_data_drives_rate_to_zero():
    model = fit(EventSet(np.empty((0, 1))), Domain([0.0], [1.0]), 5, FitConfig())
    terms = _evaluate(model)
    assert terms.int_mean_sq + terms.int_var < 0.5


def test_fit_recovers_homogeneous_rate():
    d = Domain([0.0], [4.0])
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(5):
        n = rng.poisson(100)
        ev = EventSet(np.sort(rng.uniform(0, 4, n))[:, None])
        model = fit(ev, d, 8, FitConfig())
        terms = _evaluate(model)
        total = terms.int_mean_sq + terms.int_var
        if abs(total - n) < 0.2 * n:
            hits += 1
    assert hits >= 4


def test_fit_trace_monotone():
    rng = np.random.default_rng(2)
    ev = EventSet(rng.uniform(0, 2, 40)[:, None])
    model = fit(ev, Domain([0.0], [2.0]), 6, FitConfig())
    trace = model.fit_metadata["trace"]
    assert len(trace) >= 2
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_fit_improves_on_init_elbo():
    rng = np.random.default_rng(3)
    ev = EventSet(rng.uniform(0, 1, 25)[:, None])
    model = fit(ev, Domain([0.0], [1.0]), 5, FitConfig())
    trace = model.fit_metadata["trace"]
    assert trace[-1] > trace[0]
    assert model.fit_metadata["elbo"] == pytest.approx(
        elbo(model, ev), rel=1e-9)


def test_fit_keeps_grid_z_fixed():
    rng = np.random.default_rng(4)
    ev = EventSet(rng.uniform(0, 1, 30)[:, None])
    d = Domain([0.0], [1.0])
    model = fit(ev, d, 4, FitConfig())
    assert np.allclose(model.inducing.Z, regular_grid(d, 4))


def test_fit_optimize_z_moves_points_inside_domain():
    rng = np.random.default_rng(5)
    ev = EventSet(rng.uniform(0, 1, 30)[:, None])
    d = Domain([0.0], [1.0])
    model = fit(ev, d, 4, FitConfig(optimize_z=True, max_iters=60))
    assert d.contains(model.inducing.Z).all()
    assert not np.allclose(model.inducing.Z, regular_grid(d, 4))


def test_fit_accepts_explicit_inducing_locations():
    rng = np.random.default_rng(6)
    ev = EventSet(rng.uniform(0, 1, 20)[:, None])
    Z = np.array([[0.2], [0.5], [0.9]])
    model = fit(ev, Domain([0.0], [1.0]), Z, FitConfig(max_iters=40))
    assert np.allclose(model.inducing.Z, Z)


def test_fit_deterministic():
    rng = np.random.default_rng(7)
    ev = EventSet(rng.uniform(0, 1, 35)[:, None])
    d = Domain([0.0], [1.0])
    a = fit(ev, d, 5, FitConfig(max_iters=80))
    b = fit(ev, d, 5, FitConfig(max_iters=80))
    assert np.array_equal(a.var_state.m, b.var_state.m)
    assert a.hyper.gamma == b.hyper.gamma


def test_fit_with_map_prior_shrinks_towards_init():
    rng = np.random.default_rng(8)
    ev = EventSet(rng.uniform(0, 1, 12)[:, None])
    d = Domain([0.0], [1.0])
    free = fit(ev, d, 5, FitConfig(max_iters=150))
    tight = MapPrior(log_gamma_mean=np.log(12.0), log_alpha_mean=np.log([0.04]),
                     u_bar_mean=np.sqrt(12.0), u_bar_sd=0.01, log_sd=0.01)
    pinned = fit(ev, d, 5, FitConfig(max_iters=150, map_prior=tight))
    assert abs(np.log(pinned.hyper.gamma) - np.log(12.0)) < \
        abs(np.log(free.hyper.gamma) - np.log(12.0)) + 1e-9
    assert abs(np.log(pinned.hyper.gamma) - np.log(12.0)) < 0.2


def test_default_map_prior_centred_on_init():
    rng = np.random.default_rng(9)
    ev = EventSet(rng.uniform(0, 2, 20)[:, None])
    d = Domain([0.0], [2.0])
    prior = default_map_prior(ev, d)
    assert prior.log_sd == 1.0
    assert prior.u_bar_sd > 1.0
    assert prior.log_gamma_mean == pytest.approx(np.log(10.0))
    assert np.allclose(prior.log_alpha_mean, np.log([0.16]))
    assert prior.u_bar_mean == pytest.approx(np.sqrt(10.0))


def test_fit_dimension_mismatch():
    with pytest.raises(ValueError):
        fit(EventSet(np.zeros((3, 2))), Domain([0.0], [1.0]), 4, FitConfig())


@pytest.fixture(scope="module")
def coal_fit():
    """The bundled coal data fitted at M = 16, counting objective evaluations."""
    import vbpp.optimizer as optimizer
    from vbpp.pointdata import coal_style_dataset
    ev, d = coal_style_dataset()
    real, calls = optimizer.elbo_and_gradient, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "elbo_and_gradient", counted)
        model = fit(ev, d, 16)
    return model, ev, len(calls)


def test_fit_elbo_is_the_elbo_of_the_fitted_model(coal_fit):
    model, ev, _ = coal_fit
    assert model.fit_metadata["elbo"] == elbo(model, ev)


def test_fit_elbo_is_the_elbo_of_a_2d_fitted_model():
    # For R > 1 Psi's product over dimensions must round as in the fit.
    from vbpp.simulate import ground_truth, thin_sample
    d = Domain([0.0, 0.0], [5.0, 5.0])
    truth = ground_truth(HyperParams(4.0, [2.0, 2.0]), d, resolution=24, seed=2)
    ev = thin_sample(truth, d, seed=2)
    model = fit(ev, d, 3, FitConfig(max_iters=200))
    assert model.fit_metadata["elbo"] == elbo(model, ev)


def test_fit_trace_costs_no_extra_evaluations(coal_fit):
    model, _, n_evals = coal_fit
    iterations = model.fit_metadata["iterations"]
    assert len(model.fit_metadata["trace"]) == iterations + 1
    assert n_evals <= 1.1 * iterations + 2, (n_evals, iterations)


@pytest.mark.parametrize("index", [0, 1, 19])   # log gamma, log alpha, first log-diagonal of L
@pytest.mark.parametrize("value", [800.0, -800.0])
def test_objective_rejects_steps_that_overflow(index, value):
    ev, d = coal_style_dataset()
    Z = regular_grid(d, 16)
    cfg = FitConfig()
    y = pack(_initial_model(ev, d, Z), cfg)
    y[index] = value
    f, g = _objective_factory(ev, d, 16, cfg, Z, None)(y)
    assert f == 1e25
    assert not g.any()


def test_fit_optimize_z_is_no_worse_than_the_grid_on_coal():
    # the inducing points start on the grid, so moving them must not lose
    # more than the optimiser's tolerance against keeping them there
    ev, d = coal_style_dataset()
    grid = fit(ev, d, 32, FitConfig(max_iters=5000)).fit_metadata["elbo"]
    moved = fit(ev, d, 32, FitConfig(max_iters=5000, optimize_z=True))
    assert moved.fit_metadata["elbo"] >= grid - 0.1
    assert d.contains(moved.inducing.Z).all()
