import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from vbpp.kernel import HyperParams, gram
from vbpp.pointdata import Domain
from vbpp.simulate import (
    GroundTruth,
    _rng,
    ground_truth,
    make_grid,
    sample_gp_grid,
    save_ground_truth,
    thin_sample,
)

from test_pointdata import contains


def test_make_grid_defaults_and_bounds():
    d = Domain([0.0], [1.0])
    grid, res = make_grid(d)
    assert res.tolist() == [2048]
    assert contains(d, grid).all()
    d2 = Domain([0.0, -1.0], [1.0, 1.0])
    grid2, res2 = make_grid(d2, 16)
    assert grid2.shape == (256, 2)
    assert res2.tolist() == [16, 16]


def test_sample_gp_deterministic_and_mean():
    d = Domain([0.0], [4.0])
    h = HyperParams(gamma=2.0, alpha=np.array([0.5]), u_bar=3.0)
    grid, _ = make_grid(d, 64)
    f1 = sample_gp_grid(h, grid, seed=3)
    f2 = sample_gp_grid(h, grid, seed=3)
    assert np.array_equal(f1, f2)
    assert not np.array_equal(f1, sample_gp_grid(h, grid, seed=4))
    # average over seeds approaches the prior mean u_bar
    means = [sample_gp_grid(h, grid, seed=s).mean() for s in range(60)]
    assert np.mean(means) == pytest.approx(3.0, abs=3 * np.sqrt(2.0 / 60) + 0.3)


def test_sample_gp_marginal_moments():
    d = Domain([0.0], [10.0])
    h = HyperParams(gamma=4.0, alpha=np.array([0.04]))
    grid, _ = make_grid(d, 256)
    draws = np.array([sample_gp_grid(h, grid, seed=s) for s in range(40)])
    # pooled variance across a short-lengthscale draw is close to gamma
    assert draws.var() == pytest.approx(4.0, rel=0.15)


def test_sample_gp_correlation_at_lengthscale():
    # K(x, x') = gamma e^{-1} when (x - x')^2 = 2 alpha
    d = Domain([0.0], [20.0])
    h = HyperParams(gamma=1.0, alpha=np.array([0.5]))
    pts = np.arange(0.0, 20.0, 1.0)[:, None]
    draws = np.array([sample_gp_grid(h, pts, seed=s) for s in range(300)])
    emp = np.cov(draws[:, :-1].ravel(), draws[:, 1:].ravel())[0, 1]
    assert emp == pytest.approx(np.exp(-1.0), abs=0.08)


def test_grid_that_does_not_factor_raises_after_one_try(monkeypatch, tmp_path, capsys):
    # one factorisation, at the model's nugget; its failure is an error, in
    # the library and on the command line, and nothing is written
    import vbpp.simulate
    from vbpp.cli import main

    tried = []

    def cholesky(K):
        tried.append(K.diagonal().copy())
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(vbpp.simulate, "cholesky", cholesky)
    h = HyperParams(gamma=7.0, alpha=np.array([0.5]))
    grid, _ = make_grid(Domain([0.0], [4.0]), 16)
    with pytest.raises(np.linalg.LinAlgError):
        sample_gp_grid(h, grid, seed=0)
    assert len(tried) == 1
    assert np.array_equal(tried[0], np.full(16, h.gamma + 1e-8 * h.gamma))

    out = tmp_path / "sim"
    assert main(["simulate", "--domain", "0:4", "--grid-res", "16",
                 "--out-dir", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("d, res, alpha", [
    (Domain([0.0], [10.0]), 512, [1.0]),
    (Domain([0.0, 0.0], [10.0, 10.0]), 24, [4.0, 4.0]),
    (Domain([0.0], [10.0]), None, [1e-2]),
    (Domain([0.0], [10.0]), None, [1e6]),
    (Domain([0.0, 0.0], [10.0, 10.0]), 64, [1e4, 1e4]),
])
def test_grid_draw_matches_copying_cholesky_bit_for_bit(d, res, alpha):
    # the factor made in K's own buffer is the one scipy makes in a copy, at
    # the one nugget, also for the default 1-D grid at the extremes of alpha
    # and for a smooth 64^2 grid
    h = HyperParams(gamma=4.0, alpha=np.array(alpha), u_bar=0.5)
    grid, _ = make_grid(d, res)
    K = gram(grid, grid, h)
    np.fill_diagonal(K, K.diagonal() + 1e-8 * h.gamma)
    z = _rng(5, 0x4750).standard_normal(grid.shape[0])
    want = h.u_bar + scipy.linalg.cholesky(K, lower=True) @ z
    assert np.array_equal(sample_gp_grid(h, grid, seed=5), want)


@pytest.mark.parametrize("d, res", [(Domain([0.0], [10.0]), 1024),
                                    (Domain([0.0, 0.0], [4.0, 3.0]), 32)])
def test_grid_draw_allocates_one_covariance(d, res):
    # P = 1024 grid points: K takes 8 P^2 bytes, and the factor shares its
    # buffer; the finite check's boolean array and gram's scratch block fit
    # in the remaining quarter
    h = HyperParams(gamma=200.0, alpha=np.ones(d.dims))
    grid, _ = make_grid(d, res)
    tracemalloc.start()
    try:
        sample_gp_grid(h, grid, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * grid.shape[0] ** 2


def test_square_link_is_exact():
    d = Domain([0.0], [2.0])
    h = HyperParams(gamma=1.0, alpha=np.array([1.0]))
    truth = ground_truth(h, d, resolution=32, seed=0)
    assert np.array_equal(truth.lambda_values, truth.f_values**2)


def test_lambda_at_nearest_cell():
    d = Domain([0.0], [1.0])
    grid = np.array([[0.25], [0.75]])
    truth = GroundTruth(domain=d, resolution=np.array([2]), grid=grid,
                        f_values=np.array([1.0, 2.0]),
                        lambda_values=np.array([1.0, 4.0]))
    got = truth.lambda_at(np.array([[0.1], [0.49], [0.51], [1.0]]))
    assert got.tolist() == [1.0, 1.0, 4.0, 4.0]
    assert truth.lambda_at(np.array([0.1, 0.49, 0.51, 1.0])).tolist() == [1.0, 1.0, 4.0, 4.0]


def test_integrated_rate_quadrature():
    d = Domain([0.0], [2.0])
    grid = np.array([[0.5], [1.5]])
    truth = GroundTruth(domain=d, resolution=np.array([2]), grid=grid,
                        f_values=np.array([1.0, 3.0]),
                        lambda_values=np.array([1.0, 9.0]))
    assert truth.integrated_rate() == pytest.approx(10.0)


def test_thinning_zero_intensity_gives_no_events():
    d = Domain([0.0], [1.0])
    truth = GroundTruth(domain=d, resolution=np.array([4]),
                        grid=np.linspace(0.125, 0.875, 4)[:, None],
                        f_values=np.zeros(4),
                        lambda_values=np.zeros(4))
    ev = thin_sample(truth, d, seed=0)
    assert ev.n == 0


def test_thinning_count_matches_rate():
    d = Domain([0.0], [2.0])
    h = HyperParams(gamma=9.0, alpha=np.array([1.0]), u_bar=4.0)
    truth = ground_truth(h, d, resolution=256, seed=1)
    counts = [thin_sample(truth, d, seed=s).n for s in range(60)]
    expected = truth.integrated_rate()
    se = np.sqrt(expected / 60)
    assert np.mean(counts) == pytest.approx(expected, abs=4 * se)


def test_thinning_deterministic_and_in_domain():
    d = Domain([0.0, 0.0], [1.0, 1.0])
    h = HyperParams(gamma=50.0, alpha=np.array([0.2, 0.2]))
    truth = ground_truth(h, d, resolution=32, seed=2)
    a = thin_sample(truth, d, seed=9)
    b = thin_sample(truth, d, seed=9)
    assert np.array_equal(a.points, b.points)
    assert contains(d, a.points).all()


def test_save_ground_truth_format(tmp_path):
    d = Domain([0.0], [1.0])
    h = HyperParams(gamma=1.0, alpha=np.array([1.0]))
    truth = ground_truth(h, d, resolution=8, seed=0)
    path = tmp_path / "truth.csv"
    save_ground_truth(truth, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "x0,lambda"
    assert len(rows) == 9
    first = [float(v) for v in rows[1].split(",")]
    assert first[0] == truth.grid[0, 0]
    assert first[1] == truth.lambda_values[0]
