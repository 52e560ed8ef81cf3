import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.stats import norm

from vbpp import baseline
from vbpp.baseline import (
    SIGMA_CEIL_FRAC,
    SIGMA_FLOOR_FRAC,
    InsufficientDataError,
    KsModel,
    fit_bandwidth,
    ks_intensity,
    ks_log_predictive,
    ks_log_predictive_rate_form,
    loo_objective,
    _dim_pdfs,
    truncnorm_pdf,
)
from vbpp.pointdata import Domain, EventSet


def test_ksmodel_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        KsModel(EventSet(np.zeros((3, 1))), np.array([0.0]))


def test_truncnorm_reduces_to_normal_on_wide_domain():
    d = Domain([-100.0], [100.0])
    got = truncnorm_pdf([0.3], [0.0], [1.0], d)
    assert got == pytest.approx(norm.pdf(0.3), rel=1e-12)


def test_truncnorm_end_correction_at_boundary():
    # kernel centred on the left edge: half the mass is cut away, so the
    # corrected density doubles relative to the plain normal
    d = Domain([0.0], [100.0])
    got = truncnorm_pdf([0.1], [0.0], [1.0], d)
    assert got == pytest.approx(2.0 * norm.pdf(0.1), rel=1e-9)


def test_corrected_kernel_integrates_to_one():
    d = Domain([0.0], [3.0])
    for center, sigma in [(0.1, 0.8), (1.5, 0.4), (2.9, 1.5)]:
        mass, _ = quad(lambda x: truncnorm_pdf([x], [center], [sigma], d),
                       0.0, 3.0, epsabs=1e-12, epsrel=1e-11)
        assert mass == pytest.approx(1.0, abs=1e-9)


def test_intensity_integrates_to_n():
    d = Domain([0.0], [2.0])
    train = EventSet(np.array([[0.05], [0.6], [1.9]]))
    model = KsModel(train, np.array([0.5]))
    mass, _ = quad(lambda x: ks_intensity(model, [[x]], d)[0], 0.0, 2.0,
                   epsabs=1e-11, epsrel=1e-10)
    assert mass == pytest.approx(3.0, abs=1e-8)
    grid = np.linspace(0.0, 2.0, 5)
    assert ks_intensity(model, grid, d).tolist() == ks_intensity(model, grid[:, None], d).tolist()


def test_loo_objective_permutation_invariant():
    rng = np.random.default_rng(0)
    d = Domain([0.0], [1.0])
    pts = rng.random((12, 1))
    sigma = np.array([0.2])
    a = loo_objective(EventSet(pts), sigma, d)
    b = loo_objective(EventSet(pts[::-1]), sigma, d)
    assert a == pytest.approx(b, rel=1e-13)


@pytest.mark.parametrize("dims", [1, 2])
def test_loo_objective_matches_the_pairwise_reference(dims):
    rng = np.random.default_rng(4)
    d = Domain([0.0] * dims, [1.0 + r for r in range(dims)])
    cluster = rng.uniform(0.2, 0.21, (12, dims))
    # at the floor bandwidth the isolated point sits 20 sigma or more from
    # the cluster, so its row sum is below e^-200 of the diagonal term
    isolated = np.full((1, dims), 0.2) + 20 * SIGMA_FLOOR_FRAC * d.extent
    isolated[0, 0] += 0.01
    train = EventSet(np.vstack([cluster, isolated]))
    for sigma in (SIGMA_FLOOR_FRAC * d.extent, np.full(dims, 0.02), np.full(dims, 0.7)):
        pdfs = _dim_pdfs(train.points, train.points, sigma, d)
        np.fill_diagonal(pdfs, 0.0)
        reference = float(np.sum(np.log(pdfs.sum(axis=1))))
        assert np.isfinite(reference)
        assert loo_objective(train, sigma, d) == pytest.approx(reference, rel=1e-12)
    # 40 floor bandwidths further out, a point has no kernel mass left
    far = np.vstack([train.points, isolated + 40 * SIGMA_FLOOR_FRAC * d.extent])
    assert loo_objective(EventSet(far), SIGMA_FLOOR_FRAC * d.extent, d) == -np.inf


def test_two_point_optimal_bandwidth():
    # untruncated, two points distance t apart: the LOO objective is
    # 2 log N(t; 0, s^2), maximised at s = t
    t = 0.31
    d = Domain([-50.0], [50.0])
    train = EventSet(np.array([[0.0], [t]]))
    model = fit_bandwidth(train, d)
    assert model.sigma[0] == pytest.approx(t, rel=1e-4)


def test_fit_bandwidth_needs_two_points():
    d = Domain([0.0], [1.0])
    with pytest.raises(InsufficientDataError):
        fit_bandwidth(EventSet(np.array([[0.5]])), d)


def test_duplicate_points_hit_the_floor():
    d = Domain([0.0], [1.0])
    train = EventSet(np.array([[0.4], [0.4], [0.4]]))
    model = fit_bandwidth(train, d)
    assert model.sigma[0] == pytest.approx(1e-3, rel=1e-2)


def test_fit_bandwidth_in_1d_is_one_bounded_search(monkeypatch):
    # in 1-D no coordinate is held fixed, so starts and sweeps cannot change
    # the result; the search must equal one bounded search over the band
    rng = np.random.default_rng(5)
    d = Domain([0.0], [10.0])
    train = EventSet(10.0 * rng.beta(2, 5, 80)[:, None])   # optimum inside the band
    calls = []
    make_loo = baseline._loo

    def counting_loo(*args):
        objective = make_loo(*args)

        def counted(sigma):
            calls.append(1)
            return objective(sigma)
        return counted

    monkeypatch.setattr(baseline, "_loo", counting_loo)
    model = fit_bandwidth(train, d)
    assert len(calls) <= 40

    loo = make_loo(train, d)
    lo, hi = np.log(SIGMA_FLOOR_FRAC * d.extent), np.log(SIGMA_CEIL_FRAC * d.extent)
    res = minimize_scalar(lambda t: -loo(np.exp(np.array([t]))), bounds=(lo[0], hi[0]),
                          method="bounded", options={"xatol": 1e-8})
    assert model.sigma[0] == np.exp(res.x)


def test_fit_bandwidth_2d_shapes():
    rng = np.random.default_rng(1)
    d = Domain([0.0, 0.0], [1.0, 4.0])
    train = EventSet(np.column_stack([rng.random(30), rng.random(30) * 4]))
    model = fit_bandwidth(train, d)
    assert model.sigma.shape == (2,)
    assert (model.sigma > 0).all()


def test_log_predictive_two_routes_agree():
    rng = np.random.default_rng(2)
    d = Domain([0.0], [2.0])
    train = EventSet(rng.uniform(0, 2, 15)[:, None])
    test = EventSet(rng.uniform(0, 2, 9)[:, None])
    model = KsModel(train, np.array([0.3]))
    a = ks_log_predictive(model, test, d)
    b = ks_log_predictive_rate_form(model, test, d)
    assert a == pytest.approx(b, abs=1e-10)


def test_log_predictive_empty_test():
    train = EventSet(np.linspace(0.1, 0.9, 7)[:, None])
    model = KsModel(train, np.array([0.2]))
    d = Domain([0.0], [1.0])
    assert ks_log_predictive(model, EventSet(np.empty((0, 1))), d) == -7.0


def test_better_bandwidth_scores_better():
    # held-out likelihood should prefer the LOO-selected bandwidth over an
    # absurdly narrow one
    rng = np.random.default_rng(3)
    d = Domain([0.0], [1.0])
    pts = rng.beta(2, 2, 60)[:, None]
    train, test = EventSet(pts[:40]), EventSet(pts[40:])
    fitted = fit_bandwidth(train, d)
    narrow = KsModel(train, np.array([1e-3]))
    assert ks_log_predictive(fitted, test, d) > ks_log_predictive(narrow, test, d)
