import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize, minimize_scalar
from scipy.special import logsumexp, ndtr
from scipy.stats import norm

from vbpp import baseline, pointdata
from vbpp.baseline import (
    SIGMA_CEIL_FRAC,
    SIGMA_FLOOR_FRAC,
    InsufficientDataError,
    KsModel,
    fit_bandwidth,
    ks_intensity,
    ks_log_predictive,
    loo_objective,
)
from vbpp.kernel import HyperParams
from vbpp.pointdata import Domain, EventSet, PointDataError, split_events
from vbpp.simulate import ground_truth, thin_sample

from test_pointdata import poisson_log_likelihood


def _dim_pdfs(x: np.ndarray, centers: np.ndarray, sigma: np.ndarray,
              d: Domain) -> np.ndarray:
    """Product over dimensions of 1-D normal pdfs truncated to the domain.

    x: (n, R), centers: (m, R) -> (n, m).
    """
    out = np.ones((x.shape[0], centers.shape[0]))
    for r in range(d.dims):
        s = sigma[r]
        z = (x[:, r][:, None] - centers[:, r][None, :]) / s
        pdf = np.exp(-0.5 * z**2) / (s * np.sqrt(2.0 * np.pi))
        mass = ndtr((d.hi[r] - centers[:, r]) / s) - ndtr((d.lo[r] - centers[:, r]) / s)
        pdf = pdf / mass[None, :]
        out *= pdf
    return out


def truncnorm_pdf(x, center, sigma, d: Domain) -> float:
    """Density of a diagonal normal centred at ``center``, renormalised to
    unit mass on the domain."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    center = np.asarray(center, dtype=float).reshape(1, -1)
    sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
    return float(_dim_pdfs(x, center, sigma, d)[0, 0])


def ks_log_predictive_rate_form(model: KsModel, test: EventSet, d: Domain) -> float:
    """ks_log_predictive's oracle: the generic Poisson likelihood of the test
    events under the smoothed rate, whose domain integral is N."""
    rates = ks_intensity(model, test.points, d) if test.n else np.empty(0)
    return poisson_log_likelihood(np.log(rates) if test.n else [], float(model.train.n))


def test_ksmodel_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        KsModel(EventSet(np.zeros((3, 1))), np.array([0.0]))


def test_ksmodel_needs_one_bandwidth_per_dimension():
    with pytest.raises(ValueError, match="one bandwidth per dimension"):
        KsModel(EventSet(np.zeros((3, 2))), np.array([0.1]))
    with pytest.raises(ValueError, match="one bandwidth per dimension"):
        KsModel(EventSet(np.zeros((3, 1))), np.array([0.1, 0.2]))


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


@pytest.mark.parametrize("dims", [1, 2])
def test_intensity_is_the_sum_of_the_kernel_pdfs(dims):
    d, train = _cluster_and_isolated_point(dims)
    rng = np.random.default_rng(6)
    query = np.vstack([0.1 + 0.3 * rng.random((25, dims)), train.points])
    for sigma in (np.full(dims, 0.05), np.array([0.3, 0.1][:dims])):
        model = KsModel(train, sigma)
        np.testing.assert_allclose(ks_intensity(model, query, d),
                                   _dim_pdfs(query, train.points, sigma, d).sum(axis=1),
                                   rtol=1e-12, atol=0)


def test_intensity_of_an_empty_training_set_is_zero():
    d = Domain([0.0], [1.0])
    model = KsModel(EventSet(np.empty((0, 1))), np.array([0.1]))
    assert ks_intensity(model, [0.2, 0.7], d).tolist() == [0.0, 0.0]


def test_loo_objective_permutation_invariant():
    rng = np.random.default_rng(0)
    d = Domain([0.0], [1.0])
    pts = rng.random((12, 1))
    sigma = np.array([0.2])
    a = loo_objective(EventSet(pts), sigma, d)
    b = loo_objective(EventSet(pts[::-1]), sigma, d)
    assert a == pytest.approx(b, rel=1e-13)


def _cluster_and_isolated_point(dims):
    """Twelve points in a tight cluster and one point that, at the floor
    bandwidth, sits 20 sigma or more from the cluster, so its row sum is
    below e^-200 of the diagonal term."""
    rng = np.random.default_rng(4)
    d = Domain([0.0] * dims, [1.0 + r for r in range(dims)])
    cluster = rng.uniform(0.2, 0.21, (12, dims))
    isolated = np.full((1, dims), 0.2) + 20 * SIGMA_FLOOR_FRAC * d.extent
    isolated[0, 0] += 0.01
    return d, EventSet(np.vstack([cluster, isolated]))


def _with_a_far_point(train, d):
    """``train`` plus a point 40 floor bandwidths beyond its last one: at the
    floor bandwidth every kernel term of that point underflows."""
    return EventSet(np.vstack([train.points, train.points[-1] + 40 * SIGMA_FLOOR_FRAC * d.extent]))


def _pairwise_log_pdfs(query, centres, sigma, d):
    """log N_T(q_i; c_j, Sigma) for every pair, from scipy's normal."""
    log_pdfs = np.zeros((query.shape[0], centres.shape[0]))
    for r in range(d.dims):
        s = sigma[r]
        mass = norm.cdf((d.hi[r] - centres[:, r]) / s) - norm.cdf((d.lo[r] - centres[:, r]) / s)
        log_pdfs += norm.logpdf(query[:, r][:, None], centres[:, r][None, :], s) \
            - np.log(mass)[None, :]
    return log_pdfs


def _pairwise_loo(train, sigma, d):
    """The leave-one-out objective as a logsumexp of the pairwise log pdfs."""
    log_pdfs = _pairwise_log_pdfs(train.points, train.points, sigma, d)
    np.fill_diagonal(log_pdfs, -np.inf)
    return float(np.sum(logsumexp(log_pdfs, axis=1)))


def _loo(train, d):
    """The leave-one-out objective as fit_bandwidth searches it:
    ``objective(sigma)`` is its value, ``objective(sigma, grad=True)`` the
    value and its gradient in log sigma."""
    sums = baseline._log_kernel_sums(train.points, train.points, d, leave_one_out=True)

    def objective(sigma, grad=False):
        if not grad:
            return baseline._total(*sums(sigma))
        peak, row, g = sums(sigma, grad=True)
        return baseline._total(peak, row), g
    return objective


def _loo_oracle(train: EventSet, d: Domain):
    """The leave-one-out objective over the training points alone, with
    its own half-squares and row sums: the bit-level oracle of ``_loo``."""
    X = train.points
    half_sq = [-0.5 * (X[:, r][:, None] - X[:, r][None, :]) ** 2 for r in range(d.dims)]
    buf = np.empty_like(half_sq[0])

    def objective(sigma, grad=False):
        sigma = np.atleast_1d(np.asarray(sigma, dtype=float))
        np.multiply(half_sq[0], sigma[0] ** -2, out=buf)
        for r in range(1, d.dims):
            np.add(buf, half_sq[r] * sigma[r] ** -2, out=buf)
        np.fill_diagonal(buf, -np.inf)
        peak = buf.max(axis=1)
        np.subtract(buf, peak[:, None], out=buf)
        np.maximum(buf, baseline.LOG_KERNEL_CUT, out=buf)
        np.exp(buf, out=buf)
        np.fill_diagonal(buf, 0.0)
        a = (d.hi - X) / sigma
        b = (d.lo - X) / sigma
        mass = ndtr(a) - ndtr(b)
        weight = (2.0 * np.pi) ** (-d.dims / 2) / np.prod(sigma) / mass.prod(axis=1)
        row = buf @ weight
        value = float(np.sum(peak) + np.sum(np.log(row)))
        if not grad:
            return value
        np.multiply(buf, weight, out=buf)
        np.divide(buf, row[:, None], out=buf)
        dlog_mass = (b * np.exp(-0.5 * b**2) - a * np.exp(-0.5 * a**2)) \
            / (np.sqrt(2.0 * np.pi) * mass)
        g = [-2.0 * sigma[r] ** -2 * np.vdot(buf, half_sq[r]) for r in range(d.dims)]
        return value, np.array(g) - X.shape[0] - buf.sum(axis=0) @ dlog_mass

    return objective


@pytest.mark.parametrize("dims", [1, 2])
def test_loo_objective_matches_the_pairwise_reference(dims):
    d, train = _cluster_and_isolated_point(dims)
    for sigma in (SIGMA_FLOOR_FRAC * d.extent, np.full(dims, 0.02), np.full(dims, 0.7)):
        pdfs = _dim_pdfs(train.points, train.points, sigma, d)
        np.fill_diagonal(pdfs, 0.0)
        reference = float(np.sum(np.log(pdfs.sum(axis=1))))
        assert np.isfinite(reference)
        assert loo_objective(train, sigma, d) == pytest.approx(reference, rel=1e-12)
    # the log-space rows keep the objective finite where a point's every
    # kernel term underflows
    far = _with_a_far_point(train, d)
    floor = SIGMA_FLOOR_FRAC * d.extent
    assert loo_objective(far, floor, d) == pytest.approx(_pairwise_loo(far, floor, d), rel=1e-12)



def test_loo_is_bit_identical_to_the_oracle():
    cases = []
    for dims in (1, 2):
        d, train = _cluster_and_isolated_point(dims)
        far = _with_a_far_point(train, d)
        floor = SIGMA_FLOOR_FRAC * d.extent
        cases += [(d, train, floor), (d, far, floor), (d, train, np.full(dims, 0.02)),
                  (d, far, np.full(dims, 0.3)), (d, train, np.array([0.7, 0.05][:dims]))]
    d, train = _sim_train(1)
    cases += [(d, train, sigma) for sigma in
              (SIGMA_FLOOR_FRAC * d.extent, np.array([0.885, 0.550]), np.array([3.0, 0.2]))]
    for d, events, sigma in cases:
        loo, oracle = _loo(events, d), _loo_oracle(events, d)
        assert loo_objective(events, sigma, d) == loo(sigma) == oracle(sigma)
        value, grad = loo(sigma, grad=True)
        want_value, want_grad = oracle(sigma, grad=True)
        assert value == want_value
        assert grad.tolist() == want_grad.tolist()


@pytest.mark.parametrize("dims", [1, 2])
def test_kernel_sums_over_several_tiles(dims, monkeypatch):
    # rows of 561 training events go in tiles of 56, ten of them and a lone
    # last row, and so do 449 = 8 x 56 + 1 test events; the values keep the
    # bits of one sweep over all the rows
    rng = np.random.default_rng(11)
    d = Domain([0.0] * dims, [10.0] * dims)
    train = EventSet(np.clip(rng.normal(3.0, 1.5, (561, dims)), 0.0, 10.0))
    test = EventSet(rng.uniform(0.0, 10.0, (449, dims)))
    assert pointdata.tile_rows(train.n) // 4 * 4 == 56
    oracle, loo = _loo_oracle(train, d), _loo(train, d)
    sigmas = [SIGMA_FLOOR_FRAC * d.extent, np.full(dims, 0.3), np.array([2.0, 0.7][:dims])]
    # each gradient component adds up n*m same-signed terms in each of its
    # sums, so two summation orders differ by at most 2 n m eps of their
    # size, which is about n + |gradient|: 1.4e-10 relative at n = m = 561
    tol = 2 * train.n**2 * np.finfo(float).eps
    for sigma in sigmas:
        assert loo_objective(train, sigma, d) == oracle(sigma)
        value, grad = loo(sigma, grad=True)
        want_value, want_grad = oracle(sigma, grad=True)
        assert value == want_value
        assert (np.abs(grad - want_grad) <= tol * (train.n + np.abs(want_grad))).all()
    models = [KsModel(train, sigma) for sigma in sigmas]
    tiled = [(ks_intensity(ks, test.points, d), ks_log_predictive(ks, test, d)) for ks in models]
    monkeypatch.setattr(pointdata, "TILE_BYTES", 2**62)    # one tile
    for ks, (intensity, score) in zip(models, tiled):
        assert intensity.tolist() == ks_intensity(ks, test.points, d).tolist()
        assert score == ks_log_predictive(ks, test, d)


@pytest.mark.parametrize("dims", [1, 2])
def test_loo_gradient_matches_finite_differences(dims):
    d, train = _cluster_and_isolated_point(dims)
    far = _with_a_far_point(train, d)
    floor = SIGMA_FLOOR_FRAC * d.extent
    cases = [(train, floor), (far, floor), (train, np.full(dims, 0.02)),
             (train, np.array([0.7, 0.05][:dims])), (far, np.full(dims, 0.3))]
    h = 1e-5
    for events, sigma in cases:
        loo = _loo(events, d)
        value, grad = loo(sigma, grad=True)
        assert value == loo(sigma)
        fd = np.empty(dims)
        for r in range(dims):
            step = np.zeros(dims)
            step[r] = h
            fd[r] = (loo(sigma * np.exp(step)) - loo(sigma * np.exp(-step))) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-8, atol=1e-8 * np.abs(fd).max())


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


@pytest.mark.parametrize("n", [0, 1])
def test_loo_objective_needs_two_points(n):
    # on one event the row peak is -inf and the objective would read NaN
    d = Domain([0.0], [10.0])
    with pytest.raises(InsufficientDataError):
        loo_objective(EventSet(np.ones((n, 1))), [1.0], d)


def test_duplicate_points_hit_the_floor():
    d = Domain([0.0], [1.0])
    train = EventSet(np.array([[0.4], [0.4], [0.4]]))
    model = fit_bandwidth(train, d)
    assert model.sigma[0] == pytest.approx(1e-3, rel=1e-2)


def test_fit_bandwidth_in_1d_is_one_bounded_search(monkeypatch):
    # in 1-D the search is one bounded scalar search over the band, on the
    # value alone
    rng = np.random.default_rng(5)
    d = Domain([0.0], [10.0])
    train = EventSet(10.0 * rng.beta(2, 5, 80)[:, None])   # optimum inside the band
    loo = _loo(train, d)
    lo, hi = np.log(SIGMA_FLOOR_FRAC * d.extent), np.log(SIGMA_CEIL_FRAC * d.extent)
    res = minimize_scalar(lambda t: -loo(np.exp(np.array([t]))), bounds=(lo[0], hi[0]),
                          method="bounded", options={"xatol": 1e-8})

    evaluated = _counting_loo(monkeypatch)
    model = fit_bandwidth(train, d)
    assert len(evaluated) == res.nfev <= 40
    assert model.sigma[0] == np.exp(res.x)


def test_fit_bandwidth_2d_shapes():
    rng = np.random.default_rng(1)
    d = Domain([0.0, 0.0], [1.0, 4.0])
    train = EventSet(np.column_stack([rng.random(30), rng.random(30) * 4]))
    model = fit_bandwidth(train, d)
    assert model.sigma.shape == (2,)
    assert (model.sigma > 0).all()


def _counting_loo(monkeypatch):
    """Route fit_bandwidth's objective through a wrapper that records the
    bandwidth of every evaluation."""
    evaluated = []
    make_sums = baseline._log_kernel_sums

    def counting_sums(*args, **kwargs):
        sums = make_sums(*args, **kwargs)

        def counted(sigma, **kwargs):
            evaluated.append(np.atleast_1d(sigma).copy())
            return sums(sigma, **kwargs)
        return counted

    monkeypatch.setattr(baseline, "_log_kernel_sums", counting_sums)
    return evaluated


def _nelder_mead_oracle(train, d):
    """fit_bandwidth's oracle in two or more dimensions: the best end point of
    Nelder-Mead on the value alone, inside the same box, from eight fixed
    log-uniform starts (not fit_bandwidth's scan)."""
    loo = _loo(train, d)
    lo, hi = np.log(SIGMA_FLOOR_FRAC * d.extent), np.log(SIGMA_CEIL_FRAC * d.extent)
    rng = np.random.Generator(np.random.Philox(key=[0, 0x4B53]))
    best = -np.inf
    for _ in range(8):
        start = lo + rng.random(d.dims) * (hi - lo)
        res = minimize(lambda t: -loo(np.exp(t)), start, method="Nelder-Mead",
                       bounds=list(zip(lo, hi)),
                       options={"xatol": 1e-10, "fatol": 1e-13, "maxfev": 10_000})
        best = max(best, -res.fun)
    return best


def _sim_train(seed, gamma=4.0, alpha=(4.0, 4.0), hi=10.0, grid_res=48):
    """The training half of a simulation on [0, hi]^R, drawn as ``vbpp simulate``
    draws it; the defaults are ``--domain 0:10,0:10 --gamma 4 --alpha 4,4
    --grid-res 48``."""
    d = Domain(np.zeros(len(alpha)), np.full(len(alpha), hi))
    truth = ground_truth(HyperParams(gamma, np.array(alpha)), d, resolution=grid_res, seed=seed)
    train, _ = split_events(thin_sample(truth, d, seed=seed), 0.5, 0)
    return d, train


@pytest.mark.parametrize("draw", [
    *[pytest.param({"seed": seed}, id=str(seed)) for seed in (1, 2, 3, 4, 5)],
    # draws on which the choice of starts decides the basin the search ends in
    pytest.param({"seed": 5, "alpha": (0.3, 0.3)}, id="alpha-0.3,0.3-seed-5"),
    pytest.param({"seed": 9, "alpha": (0.3, 0.3)}, id="alpha-0.3,0.3-seed-9"),
    pytest.param({"seed": 2, "gamma": 2.0, "alpha": (1.0, 9.0)}, id="gamma-2-alpha-1,9-seed-2"),
    pytest.param({"seed": 3, "gamma": 3.0, "alpha": (2.0, 2.0, 2.0), "hi": 4.0, "grid_res": 16},
                 id="3d-seed-3"),
    pytest.param({"seed": 1, "gamma": 3.0, "alpha": (2.0, 2.0, 2.0), "hi": 4.0, "grid_res": 16},
                 id="3d-seed-1", marks=pytest.mark.xfail(strict=True, reason=(
                     "CHANGES.md FOUND line on baseline.fit_bandwidth in 3-D: L-BFGS-B from "
                     "the scan's peaks ends 0.216 nats below the oracle on this draw"))),
])
def test_fit_bandwidth_2d_reaches_the_nelder_mead_oracle(draw):
    d, train = _sim_train(**draw)
    found = loo_objective(train, fit_bandwidth(train, d).sigma, d)
    oracle = _nelder_mead_oracle(train, d)
    assert found >= oracle - 1e-9 * abs(oracle)


def test_fit_bandwidth_2d_from_starts_where_every_kernel_term_underflows(monkeypatch):
    # at several scan points the isolated corner point is so far from the cluster,
    # in bandwidths, that all its kernel exponents lie below LOG_KERNEL_CUT
    d = Domain([0.0, 0.0], [1.0, 1.0])
    rng = np.random.default_rng(7)
    train = EventSet(np.vstack([rng.normal([0.6, 0.75], 0.02, (40, 2)), [[0.01, 0.01]]]))
    evaluated = _counting_loo(monkeypatch)
    found = loo_objective(train, fit_bandwidth(train, d).sigma, d)
    sq = (train.points[:-1] - train.points[-1]) ** 2
    exponents = -0.5 * (sq[None, :, :] / np.array(evaluated)[:, None, :] ** 2).sum(axis=2)
    assert (exponents.max(axis=1) < baseline.LOG_KERNEL_CUT).any()
    oracle = _nelder_mead_oracle(train, d)
    assert found >= oracle - 1e-9 * abs(oracle)


def test_fit_bandwidth_2d_evaluation_count(monkeypatch):
    d, train = _sim_train(1)
    evaluated = _counting_loo(monkeypatch)
    fit_bandwidth(train, d)
    assert len(evaluated) <= 100


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


def test_log_predictive_of_the_empty_set_in_2d():
    rng = np.random.default_rng(4)
    model = KsModel(EventSet(rng.uniform(0, 1, (7, 2))), np.array([0.2, 0.3]))
    assert ks_log_predictive(model, EventSet(), Domain([0.0, 0.0], [1.0, 1.0])) == -7.0


def test_the_baseline_rejects_events_outside_the_domain():
    # the truncated kernels put no mass outside the window, and a training
    # event there makes an end-correction weight divide by zero
    d = Domain([0.0], [10.0])
    train = EventSet(np.random.default_rng(0).uniform(0, 10, 40)[:, None])
    model = fit_bandwidth(train, d)
    with pytest.raises(PointDataError, match="test event 1: .* outside"):
        ks_log_predictive(model, EventSet(np.array([[5.0], [55.0]])), d)
    with pytest.raises(PointDataError, match="training event 40: .* outside"):
        fit_bandwidth(EventSet(np.vstack([train.points, [[25.0]]])), d)


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


def lone_event_data():
    """Two tight clusters and one lone event far from both, on 0:100.  The
    held-out split at fraction 0.5 and seed 0 puts the lone event, at 95, in
    the test half."""
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(20, 0.3, 60), rng.normal(70, 0.3, 60), [95.0]])
    return Domain([0.0], [100.0]), EventSet(np.clip(x, 0.0, 100.0)[:, None])


def _lone_event_split(dims):
    if dims == 1:
        d, events = lone_event_data()
        train, test = split_events(events, 0.5, 0)
        assert 95.0 in test.points
        return d, train, test
    rng = np.random.default_rng(0)
    d = Domain([0.0, 0.0], [10.0, 10.0])
    return d, EventSet(rng.normal([3.0, 3.0], 0.05, (40, 2))), EventSet(np.array([[9.0, 9.0]]))


def _log_predictive_oracle(train, test, sigma, d):
    """K log N - N + sum_k log((1/N) sum_j N_T(x_k; x_j, Sigma)), the inner
    sum a logsumexp of scipy's log pdfs."""
    n = train.n
    log_loc = logsumexp(_pairwise_log_pdfs(test.points, train.points, sigma, d), axis=1) \
        - np.log(n)
    return float(test.n * np.log(n) - n + np.sum(log_loc))


@pytest.mark.parametrize("dims", [1, 2])
def test_log_predictive_of_a_lone_test_event_is_finite(dims):
    # every kernel term of the lone event underflows in linear space
    d, train, test = _lone_event_split(dims)
    model = fit_bandwidth(train, d)
    assert (ks_intensity(model, test.points, d) == 0.0).any()
    got = ks_log_predictive(model, test, d)
    assert np.isfinite(got)
    assert got == pytest.approx(_log_predictive_oracle(train, test, model.sigma, d), rel=1e-12)
