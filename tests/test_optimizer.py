import numpy as np
import pytest

from vbpp.core import (
    GRAD_BLOCKS,
    InducingPoints,
    Model,
    VariationalState,
    _evaluate,
    elbo,
    elbo_and_gradient,
    kzz_factor,
    q_terms,
    theta_gradient,
    theta_stage,
    xz_sq_diffs,
)
from vbpp.kernel import HyperParams
from vbpp import cli, optimizer
from vbpp.optimizer import (
    FAILED_OBJECTIVE,
    FitConfig,
    FitError,
    _initial_model,
    _ProfiledBound,
    fit,
    pack,
    regular_grid,
    solve_q,
    unpack,
)
from vbpp.pointdata import Domain, EventSet, PointDataError, coal_style_dataset

from test_pointdata import contains


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(max_iters=0)


def test_regular_grid_midpoints():
    d = Domain([0.0], [1.0])
    g = regular_grid(d, 4)
    assert np.allclose(g[:, 0], [0.125, 0.375, 0.625, 0.875])
    d2 = Domain([0.0, 0.0], [2.0, 2.0])
    g2 = regular_grid(d2, [2, 3])
    assert g2.shape == (6, 2)
    assert contains(d2, g2).all()


def test_pack_lengths():
    d = Domain([0.0], [1.0])
    h = HyperParams(gamma=1.0, alpha=np.array([1.0]), u_bar=0.0)
    Z = np.array([[0.25], [0.75]])
    vs = VariationalState(np.zeros(2), np.eye(2))
    model = Model(h, InducingPoints(Z), vs, d)
    # theta alone: 1 + R + 1, and M x R more with the inducing points
    assert pack(model, FitConfig()).size == 3
    assert pack(model, FitConfig(optimize_z=True)).size == 5


def test_pack_unpack_roundtrip():
    d = Domain([0.0], [3.0])
    h = HyperParams(gamma=2.5, alpha=np.array([0.4]), u_bar=-0.3)
    Z = np.array([[0.5], [1.5], [2.5]])
    L = np.array([[0.7, 0, 0], [0.1, 0.5, 0], [-0.2, 0.3, 0.9]])
    vs = VariationalState(np.array([1.0, -2.0, 0.5]), L)
    model = Model(h, InducingPoints(Z), vs, d)
    for cfg in (FitConfig(), FitConfig(optimize_z=True)):
        y = pack(model, cfg)
        fixed_z = None if cfg.optimize_z else Z
        back = unpack(y, d, 3, cfg, fixed_z=fixed_z, var_state=vs)
        assert back.hyper.gamma == pytest.approx(2.5, rel=1e-14)
        assert np.allclose(back.hyper.alpha, [0.4])
        assert back.hyper.u_bar == pytest.approx(-0.3)
        assert back.var_state is vs
        assert np.array_equal(back.inducing.Z, Z)
        # without a q(u), unpack gives the prior, where the KL vanishes
        prior = unpack(y, d, 3, cfg, fixed_z=fixed_z)
        assert np.array_equal(prior.var_state.m, np.full(3, back.hyper.u_bar))
        assert np.array_equal(prior.var_state.L, kzz_factor(Z, prior.hyper)[1])
        assert _evaluate(prior).kl == pytest.approx(0.0, abs=1e-9)


def test_unpack_length_check():
    with pytest.raises(ValueError):
        unpack(np.zeros(9), Domain([0.0], [1.0]), 2, FitConfig(),
               fixed_z=np.array([[0.2], [0.8]]))


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
    assert contains(d, model.inducing.Z).all()
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


def test_initial_hyper_centred_on_data():
    rng = np.random.default_rng(9)
    ev = EventSet(rng.uniform(0, 2, 20)[:, None])
    d = Domain([0.0], [2.0])
    h = _initial_model(ev, d, regular_grid(d, 4)).hyper
    assert h.gamma == pytest.approx(10.0)                 # N / |T|
    assert np.allclose(h.alpha, [0.16])                   # (extent / 5)^2
    assert h.u_bar == pytest.approx(np.sqrt(10.0))


def test_fit_dimension_mismatch():
    with pytest.raises(ValueError):
        fit(EventSet(np.zeros((3, 2))), Domain([0.0], [1.0]), 4, FitConfig())


@pytest.fixture(scope="module")
def coal_fit():
    """The bundled coal data fitted at M = 16, counting objective evaluations."""
    import vbpp.optimizer as optimizer
    from vbpp.pointdata import coal_style_dataset
    ev, d = coal_style_dataset()
    real, calls = optimizer.theta_gradient, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "theta_gradient", counted)
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


def test_fit_rejects_events_outside_the_domain():
    d = Domain([0.0], [10.0])
    for outside in (25.0, -3.0):
        with pytest.raises(PointDataError, match="outside"):
            fit(EventSet(np.array([[1.0], [outside]])), d, 5, FitConfig(max_iters=50))


@pytest.mark.parametrize("Z, optimize_z", [
    ([-5.0, 3.0, 20.0], False),    # would fit at that Z
    ([-5.0, 3.0, 20.0], True),     # L-BFGS-B would clip the start into its box
    ([1.0, np.nan, 5.0], False),   # would fail in the Cholesky, naming no input
])
def test_fit_rejects_inducing_points_outside_the_domain(Z, optimize_z):
    ev = EventSet(np.array([[1.0], [4.0], [8.0]]))
    with pytest.raises(PointDataError, match=r"inducing point \d: .* outside"):
        fit(ev, Domain([0.0], [10.0]), np.array(Z)[:, None],
            FitConfig(max_iters=50, optimize_z=optimize_z))


def test_fit_trace_costs_no_extra_evaluations(coal_fit):
    # each evaluation of the objective takes the bound's gradient in theta
    # once, and recording the trace adds no evaluation
    model, _, n_evals = coal_fit
    meta = model.fit_metadata
    assert len(meta["trace"]) == meta["iterations"] + 1
    assert n_evals == meta["evaluations"]
    assert meta["inner_steps"] > 0


def test_fit_rejects_an_empty_inducing_array():
    with pytest.raises(PointDataError, match="inducing points"):
        fit(EventSet(np.array([[1.0], [4.0]])), Domain([0.0], [10.0]), np.empty((0, 1)))


@pytest.mark.parametrize("M", [5, 10, 16, 32])
def test_default_fits_converge_on_coal(M):
    ev, d = coal_style_dataset()
    meta = fit(ev, d, M).fit_metadata
    assert meta["converged"], (meta["message"], meta["iterations"])
    assert meta["iterations"] < FitConfig().max_iters


def _coal_start_objective(cfg=FitConfig()):
    """The coal fit's objective at M=16 and its starting point."""
    ev, d = coal_style_dataset()
    start = _initial_model(ev, d, regular_grid(d, 16))
    return _ProfiledBound(ev, start, cfg), pack(start, cfg)


def test_profiled_gradient_matches_finite_differences_at_coal_start():
    # the envelope theorem: at the q solved at theta the bound's partial
    # gradient in theta is the gradient of the profiled bound.  The solve
    # stops within rounding noise of about 1e-6 nats here, so the steps are
    # 1e-3 and 1e-2, where that noise is negligible
    objective, y0 = _coal_start_objective()
    f0, g = objective(y0)      # the first evaluation is the start every solve begins from
    for i in range(y0.size):
        best = np.inf
        for step in (1e-3, 1e-2):
            e = np.zeros(y0.size)
            e[i] = step
            fd = (objective(y0 + e)[0] - objective(y0 - e)[0]) / (2 * step)
            best = min(best, abs(fd - g[i]) / max(abs(g[i]), 1e-3 * np.abs(g).max()))
        assert best <= 1e-3, (i, g[i], best)
    assert objective(y0)[0] == f0


def test_solve_q_raises_the_bound_and_stops_at_its_own_answer():
    objective, _ = _coal_start_objective()
    stage = theta_stage(objective.start, objective.events, objective.cfg.optimize_z,
                        objective.xz_sq)
    q0 = objective.start.var_state
    q, steps, _ = solve_q(stage, q0)
    assert steps > 0
    assert q_terms(stage, q).elbo > q_terms(stage, q0).elbo + 1.0
    again, more, _ = solve_q(stage, q)
    assert q_terms(stage, again).elbo >= q_terms(stage, q).elbo
    assert more < steps


@pytest.mark.parametrize("index", [0, 1])        # log gamma, log alpha
@pytest.mark.parametrize("value", [800.0, -800.0])
def test_objective_rejects_steps_that_overflow(index, value):
    negative_bound, y = _coal_start_objective()
    y[index] = value
    f, g = negative_bound(y)
    assert f == FAILED_OBJECTIVE
    assert not g.any()


def test_objective_rejects_a_non_finite_gradient(monkeypatch):
    # a finite value with a NaN block would poison L-BFGS-B's curvature pairs
    real = optimizer.theta_gradient

    def nan_block(*args, **kwargs):
        grads = real(*args, **kwargs)
        grads["log_alpha"] = np.full_like(grads["log_alpha"], np.nan)
        return grads

    monkeypatch.setattr(optimizer, "theta_gradient", nan_block)
    negative_bound, y = _coal_start_objective()
    f, g = negative_bound(y)
    assert f == FAILED_OBJECTIVE
    assert not g.any()


def test_objective_avoids_scipy_linalg_wrappers_and_z_partials(monkeypatch):
    # the bound and the solve of q(u) call LAPACK directly, and a fixed-grid
    # fit never needs Psi's partials w.r.t. Z
    import scipy.linalg
    import vbpp
    from vbpp import kernel

    def forbidden(*args, **kwargs):
        raise AssertionError("reached a code path the objective must not take")

    negative_bound, y = _coal_start_objective()

    modules = [scipy.linalg] + [getattr(vbpp, m) for m in dir(vbpp)
                                if type(getattr(vbpp, m)) is type(vbpp)]
    for name in ("cholesky", "cho_solve", "solve_triangular"):
        wrapper = getattr(scipy.linalg, name)
        for module in modules:     # wherever a module binds the scipy function
            if getattr(module, name, None) is wrapper:
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(kernel, "_dfac_dzi", forbidden)
    f, g = negative_bound(y)
    assert f != FAILED_OBJECTIVE and np.isfinite(g).all()


def test_fit_in_which_every_evaluation_fails_raises(monkeypatch, tmp_path):
    # a zero gradient at the failure value would otherwise read as converged
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(optimizer, "theta_gradient", fail)
    ev, d = coal_style_dataset()
    with pytest.raises(FitError):
        fit(ev, d, 16)
    np.savetxt(tmp_path / "events.csv", ev.points, delimiter=",")
    assert cli.main(["fit", "--data", str(tmp_path / "events.csv"), "--domain", "1851:1962",
                     "--out-dir", str(tmp_path / "fit")]) == 1
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("M", [5, 10, 16, 24, 32])
def test_fit_optimize_z_is_no_worse_than_the_grid_on_coal(M):
    # the inducing points start on the grid, so moving them must not lose
    # more than the optimiser's tolerance against keeping them there
    ev, d = coal_style_dataset()
    grid = fit(ev, d, M, FitConfig(max_iters=5000)).fit_metadata["elbo"]
    moved = fit(ev, d, M, FitConfig(max_iters=5000, optimize_z=True))
    assert moved.fit_metadata["elbo"] >= grid - 0.1
    assert contains(d, moved.inducing.Z).all()


@pytest.fixture(scope="module")
def grid_2d_fit():
    """A 6 x 6 inducing grid fitted to a simulated 2-D data set."""
    from vbpp.simulate import ground_truth, thin_sample
    d = Domain([0.0, 0.0], [10.0, 10.0])
    ev = thin_sample(ground_truth(HyperParams(4.0, [4.0, 4.0]), d, resolution=24, seed=1),
                     d, seed=1)
    return fit(ev, d, 6, FitConfig(max_iters=100)), ev, d


@pytest.mark.parametrize("case", ["coal-start", "coal-fitted", "2d-start", "2d-fitted"])
def test_objective_with_cached_squares_is_bit_identical_to_the_bound(case, request,
                                                                     monkeypatch):
    # a fixed-grid fit forms the events' squared differences to Z once; every
    # evaluation must round as if the bound had formed them itself
    if case.startswith("coal"):
        ev, d = coal_style_dataset()
        fitted = request.getfixturevalue("coal_fit")[0]
    else:
        fitted, ev, d = request.getfixturevalue("grid_2d_fit")
    Z = fitted.inducing.Z
    model = fitted if case.endswith("fitted") else _initial_model(ev, d, Z)
    cfg = FitConfig()
    y = pack(model, cfg)
    f, g = _ProfiledBound(ev, model, cfg)(y)
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "xz_sq_diffs", lambda events, Z: None)
        want_f, want_g = _ProfiledBound(ev, model, cfg)(y)
    assert f == want_f
    assert np.array_equal(g, want_g)
    cached = q_terms(theta_stage(model, ev, True, xz_sq_diffs(ev, Z)), model.var_state)
    cached_grads = {**cached.grads, **theta_gradient(cached)}
    value, grads = elbo_and_gradient(model, ev, GRAD_BLOCKS)
    assert cached.elbo == value
    for b in GRAD_BLOCKS:
        assert np.array_equal(cached_grads[b], grads[b]), b


@pytest.mark.parametrize("case", ["coal-start", "2d-start", "coal-start-z"])
def test_objective_hands_the_solved_q_terms_to_the_bound(case, request):
    # the objective takes the value and theta's blocks from the terms that
    # solve_q formed at its answer; they must be the bits the bound itself
    # gives from scratch at that q
    if case.startswith("coal"):
        ev, d = coal_style_dataset()
        Z = regular_grid(d, 16)
    else:
        _, ev, d = request.getfixturevalue("grid_2d_fit")
        Z = regular_grid(d, 6)
    objective = _ProfiledBound(ev, _initial_model(ev, d, Z),
                               FitConfig(optimize_z=case.endswith("-z")))
    f, g = objective(pack(objective.start, objective.cfg))
    _, model, value = objective.last
    assert model.var_state is not objective.start.var_state
    want, grads = elbo_and_gradient(model, ev, objective.wrt)
    assert value == want and f == -want
    assert np.array_equal(g, -np.concatenate([np.ravel(grads[b]) for b in objective.wrt]))


def test_optimize_z_objective_never_reuses_squares_of_another_z():
    cfg = FitConfig(optimize_z=True)
    objective, y1 = _coal_start_objective(cfg)
    y2 = y1.copy()
    y2[-16:] += np.linspace(-2.0, 2.0, 16)      # every inducing point moves
    seen = []
    for y in (y1, y2, y1):
        f, g = objective(y)
        fresh = _coal_start_objective(cfg)[0]
        fresh(y1)                               # the same accepted start
        want_f, want_g = fresh(y)
        assert f == want_f
        assert np.array_equal(g, want_g)
        seen.append(f)
    assert seen[0] != seen[1] and seen[0] == seen[2]
